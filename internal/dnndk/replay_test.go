package dnndk

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fpgauv/internal/board"
	"fpgauv/internal/dpu"
	"fpgauv/internal/ecc"
	"fpgauv/internal/models"
	"fpgauv/internal/nn"
	"fpgauv/internal/pmbus"
)

// replayRig loads a Tiny benchmark with planted labels: dense, or 50 %
// block-pruned on the sparse backend.
func replayRig(t *testing.T, name string, sparse bool, images int) (*Runtime, *Task, *models.Dataset) {
	t.Helper()
	rt, err := NewRuntime(board.MustNew(board.SampleB), 3)
	if err != nil {
		t.Fatal(err)
	}
	bench, err := models.New(name, models.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultQuantizeOptions()
	if sparse {
		opts.Sparsity, opts.PruneBlocks, opts.Backend = 0.5, true, dpu.BackendSparse
	}
	k, err := Quantize(bench, opts)
	if err != nil {
		t.Fatal(err)
	}
	task, err := rt.LoadKernel(k)
	if err != nil {
		t.Fatal(err)
	}
	ds := bench.MakeDataset(images, 3)
	if err := task.PlantLabels(ds, bench.TargetAccPct, 5); err != nil {
		t.Fatal(err)
	}
	return rt, task, ds
}

// seededPass classifies ds as ClassifyWith does — one Int63 from a
// seed-pinned rng per image, micro-batch by micro-batch — replaying traces
// when given them and through InferBatch, which carries none, otherwise.
// It returns the aggregate and every image's probability bits.
func seededPass(task *Task, ds *models.Dataset, seed int64, traces []*dpu.Trace) (*ClassifyResult, [][]uint32, error) {
	rng := rand.New(rand.NewSource(seed))
	s := dpu.NewScratch()
	rngs := s.BatchRNGs(ds.Len())
	for _, r := range rngs {
		r.Seed(rng.Int63())
	}
	out := &ClassifyResult{Preds: make([]int, ds.Len())}
	probs := make([][]uint32, ds.Len())
	for lo := 0; lo < ds.Len(); lo += MicroBatch {
		hi := min(lo+MicroBatch, ds.Len())
		var res []dpu.Result
		var err error
		if traces == nil {
			res, err = task.InferBatch(s, ds.Inputs[lo:hi], rngs[lo:hi])
		} else {
			res, err = task.rt.dp.RunBatch(s, task.Kernel, ds.Inputs[lo:hi], rngs[lo:hi], traces[lo:hi])
		}
		if err != nil {
			return nil, nil, err
		}
		for i, r := range res {
			out.Preds[lo+i] = r.Pred
			out.MACFaults += r.MACFaults
			out.BRAMFaults += r.BRAMFaults
			for _, p := range r.Probs.Data() {
				probs[lo+i] = append(probs[lo+i], math.Float32bits(p))
			}
		}
		out.ECC.Add(res[0].ECC)
	}
	return out, probs, nil
}

// checkReplayMatchesFull runs one operating point at one seed three ways —
// ClassifyWith, the traced pass and InferBatch — and requires the first
// two to reproduce the third bit for bit. It returns the point's MAC
// faults, or board.ErrHung.
func checkReplayMatchesFull(t *testing.T, task *Task, ds *models.Dataset, seed int64, at string) (int64, error) {
	t.Helper()
	got, err := task.ClassifyWith(nil, ds, rand.New(rand.NewSource(seed)))
	if err != nil {
		return 0, err
	}
	want, wantProbs, err := seededPass(task, ds, seed, nil)
	if err != nil {
		t.Fatalf("%s: full pass: %v", at, err)
	}
	if got.MACFaults != want.MACFaults || got.BRAMFaults != want.BRAMFaults || got.ECC != want.ECC {
		t.Fatalf("%s: replay MAC %d BRAM %d ECC %+v, full MAC %d BRAM %d ECC %+v", at,
			got.MACFaults, got.BRAMFaults, got.ECC, want.MACFaults, want.BRAMFaults, want.ECC)
	}
	for i := range want.Preds {
		if got.Preds[i] != want.Preds[i] {
			t.Fatalf("%s: image %d: replay pred %d, full %d", at, i, got.Preds[i], want.Preds[i])
		}
	}
	traces, err := task.reference(ds)
	if err != nil {
		t.Fatal(err)
	}
	_, probs, err := seededPass(task, ds, seed, traces)
	if err != nil {
		t.Fatalf("%s: traced pass: %v", at, err)
	}
	for i := range wantProbs {
		for j := range wantProbs[i] {
			if probs[i][j] != wantProbs[i][j] {
				t.Fatalf("%s: image %d probs[%d]: replay %08x, full %08x", at, i, j, probs[i][j], wantProbs[i][j])
			}
		}
	}
	return got.MACFaults, nil
}

// TestReplayMatchesFullExecution is the replay's equivalence gate: on
// every benchmark, dense and 50 % block-pruned, at every 5 mV step from
// Vmin down to the last one above Vcrash and at three seeds, a pass that
// replays the golden run reports exactly the predictions, fault and ECC
// counts and probability bits of one that executes every layer.
func TestReplayMatchesFullExecution(t *testing.T) {
	for _, name := range models.Names() {
		for _, sparse := range []bool{false, true} {
			rt, task, ds := replayRig(t, name, sparse, 20)
			var points int
			var faults int64
			for mv := 600.0; ; mv -= 5 {
				setVCCINT(t, rt, mv)
				cond := rt.Board().Conditions()
				cond.Stress = task.Kernel.Workload.Stress
				if rt.Board().Fabric().MACFaultProb(cond) == 0 {
					continue
				}
				hung := false
				for seed := int64(1); seed <= 3; seed++ {
					f, err := checkReplayMatchesFull(t, task, ds, seed, fmt.Sprintf("%s %s %.0f mV", name, task.Kernel.BackendName(), mv))
					if errors.Is(err, board.ErrHung) {
						hung = true
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					faults += f
				}
				if hung {
					rt.Board().Reboot()
					break
				}
				points++
			}
			if points < 2 || faults == 0 {
				t.Fatalf("%s sparse=%v: %d critical points, %d MAC faults: replay not exercised", name, sparse, points, faults)
			}
		}
	}
}

// TestReplayOffUnderBRAMFaults undervolts VCCBRAM under SECDED next to a
// faulty VCCINT: every pass samples BRAM flips, so it must run in full
// (its weights are not the traced ones) and still match InferBatch.
func TestReplayOffUnderBRAMFaults(t *testing.T) {
	rt, task, ds := replayRig(t, "VGGNet", false, 20)
	rt.DPU().SetProtection(ecc.NewProtection(true))
	if err := pmbus.NewAdapter(rt.Board().Bus(), board.AddrVCCBRAM).SetVoltageMV(502); err != nil {
		t.Fatal(err)
	}
	setVCCINT(t, rt, 560)
	var bram int64
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := checkReplayMatchesFull(t, task, ds, seed, "VCCBRAM 502 mV"); err != nil {
			t.Fatal(err)
		}
		res, err := task.Classify(ds, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		bram += res.BRAMFaults
	}
	if bram == 0 {
		t.Fatal("no BRAM faults at VCCBRAM 502 mV: the resume-off path was not exercised")
	}
}

// TestTraceBytesVGGNet pins a VGGNet-Tiny trace's footprint. VGGNet is a
// chain, so no replay reads a traced activation: the trace is its
// accumulators alone, four bytes per conv/FC output.
func TestTraceBytesVGGNet(t *testing.T) {
	_, task, ds := replayRig(t, "VGGNet", false, 2)
	traces, err := task.reference(ds)
	if err != nil {
		t.Fatal(err)
	}
	g := task.Kernel.Graph
	var outputs int64
	for _, n := range g.Nodes() {
		switch n.Op.(type) {
		case *nn.Conv2D, *nn.Dense:
			sh, err := g.NodeShape(n.ID)
			if err != nil {
				t.Fatal(err)
			}
			outputs += int64(sh.C * sh.H * sh.W)
		}
	}
	for i, tr := range traces {
		if got := tr.Bytes(); got != 4*outputs || got != 98_440 {
			t.Fatalf("image %d: trace %d B, want 4 × %d conv/FC outputs = 98440", i, got, outputs)
		}
	}
}

// TestUnloadDropsReferenceRuns is the crash/recover leak regression: the
// crash protocol reboots, unloads and reloads the kernel and re-plants
// labels. Unload releases the old task's reference, the reload takes a
// new one, and the store stays one entry deep, held once, however often
// the board crashes.
func TestUnloadDropsReferenceRuns(t *testing.T) {
	rt, task, ds := replayRig(t, "AlexNet", false, 4)
	bench, _ := models.New("AlexNet", models.Tiny)
	key := task.refKey(ds)
	for crash := 0; crash < 5; crash++ {
		setVCCINT(t, rt, 500)
		if _, err := task.Classify(ds, rand.New(rand.NewSource(1))); !errors.Is(err, board.ErrHung) {
			t.Fatalf("crash %d: want ErrHung, got %v", crash, err)
		}
		rt.Board().Reboot()
		if err := task.Unload(); err != nil {
			t.Fatal(err)
		}
		if n := storeRefs(key); n != 0 {
			t.Fatalf("after unload %d: entry still holds %d references", crash+1, n)
		}
		next, err := rt.LoadKernel(task.Kernel)
		if err != nil {
			t.Fatal(err)
		}
		if err := next.PlantLabels(ds, bench.TargetAccPct, 5); err != nil {
			t.Fatal(err)
		}
		task = next
		if next.refKey(ds) != key {
			t.Fatalf("after crash %d: the reloaded kernel keys differently", crash+1)
		}
		if n := storeRefs(key); n != 1 {
			t.Fatalf("after crash %d: %d references, want 1", crash+1, n)
		}
	}
}

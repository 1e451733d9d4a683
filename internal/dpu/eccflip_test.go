package dpu

import (
	"fmt"
	"math/rand"
	"testing"

	"fpgauv/internal/board"
	"fpgauv/internal/ecc"
	"fpgauv/internal/pmbus"
	"fpgauv/internal/quant"
	"fpgauv/internal/tensor"
)

// kernelWeightImages lists every weight image of the kernel a pass could
// corrupt: the dense tensors and, on a sparse kernel, the packed images.
func kernelWeightImages(k *Kernel) []*quant.QTensor {
	var out []*quant.QTensor
	for i := range k.Nodes {
		if w := k.Nodes[i].WQ; w != nil {
			out = append(out, w)
		}
		if sw := k.Nodes[i].SW; sw != nil {
			out = append(out, sw.Packed)
		}
	}
	return out
}

// kernelWeightSnapshot clones every weight image of the kernel.
func kernelWeightSnapshot(k *Kernel) [][]int8 {
	var out [][]int8
	for _, w := range kernelWeightImages(k) {
		out = append(out, append([]int8(nil), w.Data...))
	}
	return out
}

func checkWeightSnapshot(t *testing.T, k *Kernel, snap [][]int8, when string) {
	t.Helper()
	for j, w := range kernelWeightImages(k) {
		for idx, v := range w.Data {
			if v != snap[j][idx] {
				t.Fatalf("%s: image %d weight[%d] = %d, want %d (restore broken)", when, j, idx, v, snap[j][idx])
			}
		}
	}
}

// The protected path's corrected/detected/silent counts must be
// bit-exactly deterministic under a pinned seed, for the batch of one
// and of N.
func TestECCCountsDeterministic(t *testing.T) {
	d, k, inputs := buildConvNetKernel(t)
	d.SetProtection(ecc.NewProtection(true))
	const pBRAM = 2e-3

	run := func(seed int64) *Result {
		return runOne(t, d, k, inputs[0], seed, 0, pBRAM)
	}
	for seed := int64(1); seed <= 8; seed++ {
		a, b := run(seed), run(seed)
		if a.ECC != b.ECC || a.BRAMFaults != b.BRAMFaults {
			t.Fatalf("seed %d: ECC %+v/%d vs %+v/%d not deterministic", seed, a.ECC, a.BRAMFaults, b.ECC, b.BRAMFaults)
		}
		if a.Pred != b.Pred {
			t.Fatalf("seed %d: pred %d vs %d", seed, a.Pred, b.Pred)
		}
		if a.ECC.Total() == 0 && a.BRAMFaults != 0 {
			t.Fatalf("seed %d: raw faults %d with no classified words", seed, a.BRAMFaults)
		}
	}

	in := makeBatch(inputs, 5)
	batch := func(seed int64) ([]Result, []float32) {
		rngs := seededRNGs(seed, len(in))
		res, err := d.runBatch(nil, k, in, rngs, 0, pBRAM)
		if err != nil {
			t.Fatal(err)
		}
		return res, append([]float32(nil), res[0].Probs.Data()...)
	}
	a, ap := batch(33)
	b, bp := batch(33)
	for i := range a {
		if a[i].ECC != b[i].ECC || a[i].BRAMFaults != b[i].BRAMFaults {
			t.Fatalf("batch image %d: %+v vs %+v", i, a[i].ECC, b[i].ECC)
		}
		// Persistent-per-batch semantics: every image reports the batch's
		// shared outcome split.
		if a[i].ECC != a[0].ECC {
			t.Fatalf("image %d does not share the batch outcome split: %+v vs %+v", i, a[i].ECC, a[0].ECC)
		}
	}
	for j := range ap {
		if ap[j] != bp[j] {
			t.Fatalf("batch probs[%d] differ across identical runs", j)
		}
	}
}

// A pass whose faulted words were all corrected must be bit-exact with
// the fault-free reference: SECDED made the corruption invisible. Seeds
// with uncorrectable words must still leave the weights restored.
func TestECCCorrectedRunsMatchClean(t *testing.T) {
	d, k, inputs := buildConvNetKernel(t)
	d.SetProtection(ecc.NewProtection(true))
	snap := kernelWeightSnapshot(k)
	clean := cleanOne(t, d, nil, k, inputs[0])

	correctedOnly, uncorrectable := 0, 0
	for seed := int64(1); seed <= 60; seed++ {
		res := runOne(t, d, k, inputs[0], seed, 0, 2e-3)
		checkWeightSnapshot(t, k, snap, "after protected run")
		if res.ECC.Total() == 0 {
			continue
		}
		if res.ECC.Bad() == 0 {
			correctedOnly++
			if res.Pred != clean.Pred {
				t.Fatalf("seed %d: corrected-only pass changed the prediction", seed)
			}
			cp, rp := clean.Probs.Data(), res.Probs.Data()
			for j := range cp {
				if cp[j] != rp[j] {
					t.Fatalf("seed %d: corrected-only pass perturbed probs[%d]", seed, j)
				}
			}
		} else {
			uncorrectable++
		}
	}
	if correctedOnly == 0 {
		t.Error("no corrected-only pass in 60 seeds; lower pBRAM for the test")
	}
}

// An installed-but-disabled protection must leave the executor on the
// unprotected path, bit-exact with no protection at all.
func TestECCDisabledMatchesLegacy(t *testing.T) {
	d, k, inputs := buildConvNetKernel(t)
	const pBRAM = 1e-3
	legacy := runOne(t, d, k, inputs[0], 9, 0, pBRAM)
	d.SetProtection(ecc.NewProtection(false))
	disabled := runOne(t, d, k, inputs[0], 9, 0, pBRAM)
	if legacy.Pred != disabled.Pred || legacy.BRAMFaults != disabled.BRAMFaults {
		t.Fatalf("disabled protection drifted: pred %d/%d faults %d/%d",
			legacy.Pred, disabled.Pred, legacy.BRAMFaults, disabled.BRAMFaults)
	}
	if disabled.ECC != (ecc.Counts{}) {
		t.Fatalf("disabled protection classified words: %+v", disabled.ECC)
	}
	lp, dp := legacy.Probs.Data(), disabled.Probs.Data()
	for j := range lp {
		if lp[j] != dp[j] {
			t.Fatalf("probs[%d] drifted with disabled protection", j)
		}
	}
}

// Batch restore integrity under heavy protected corruption, including
// silent miscorrections (which rewrite bits the fault never touched).
func TestECCBatchRestoresWeights(t *testing.T) {
	d, k, inputs := buildConvNetKernel(t)
	prot := ecc.NewProtection(true)
	d.SetProtection(prot)
	snap := kernelWeightSnapshot(k)
	in := makeBatch(inputs, 6)
	for seed := int64(1); seed <= 20; seed++ {
		rngs := seededRNGs(seed*311, len(in))
		if _, err := d.runBatch(nil, k, in, rngs, 0, 5e-3); err != nil {
			t.Fatal(err)
		}
		checkWeightSnapshot(t, k, snap, "after protected batch")
	}
	c := prot.Counts()
	if c.Corrected == 0 {
		t.Error("heavy corruption produced no corrected words")
	}
	if c.Bad() == 0 {
		t.Error("heavy corruption produced no uncorrectable/silent words; raise pBRAM")
	}
}

// TestRestoreCoversEveryPass pins the single restore path: the dense
// weights and the packed sparse images are byte-identical to a pre-run
// snapshot after a batch of one and a batch of N with BRAM faults live,
// unprotected and under SECDED with silent miscorrections, when two
// writes landed on one word, and after a pass that failed in a lane.
func TestRestoreCoversEveryPass(t *testing.T) {
	const pBRAM = 2e-2
	for _, tc := range []struct {
		name      string
		build     func(*testing.T) (*DPU, *Kernel, []*tensor.Tensor)
		protected bool
	}{
		{"dense/unprotected", buildConvNetKernel, false},
		{"dense/secded", buildConvNetKernel, true},
		{"sparse/unprotected", buildSparseConvNetKernel, false},
		{"sparse/secded", buildSparseConvNetKernel, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, k, inputs := tc.build(t)
			prot := ecc.NewProtection(tc.protected)
			d.SetProtection(prot)
			snap := kernelWeightSnapshot(k)
			s := NewScratch()

			// The flip records of one pass, before the restore consumes
			// them: some byte must have been written twice, the case only a
			// newest-first unwind restores.
			type site struct {
				w   *quant.QTensor
				idx int32
			}
			overlapped := false
			for seed := int64(1); seed <= 20; seed++ {
				ba := s.batchBind(1)
				if n, _ := d.flipBatchWeights(ba, k, pBRAM, rand.New(rand.NewSource(seed))); n == 0 {
					t.Fatalf("seed %d: no BRAM faults at p=%g", seed, pBRAM)
				}
				written := map[site]bool{}
				for _, f := range ba.flips {
					overlapped = overlapped || written[site{f.w, f.idx}]
					written[site{f.w, f.idx}] = true
				}
				d.restoreBatchWeights(ba)
				checkWeightSnapshot(t, k, snap, "after flip+restore")
			}
			if !overlapped {
				t.Error("no byte written twice in 20 seeds; raise pBRAM")
			}

			for _, n := range []int{1, 5} {
				in := makeBatch(inputs, n)
				for seed := int64(1); seed <= 10; seed++ {
					if _, err := d.runBatch(s, k, in, seededRNGs(seed*311, n), 2e-4, pBRAM); err != nil {
						t.Fatal(err)
					}
					checkWeightSnapshot(t, k, snap, "after a pass")
				}
				// A wrong-sized image fails its lane after the flips were
				// applied (alone it gets as far as fc1's input check).
				bad := append([]*tensor.Tensor(nil), in...)
				bad[n-1] = tensor.New(3, 8, 8)
				if _, err := d.runBatch(s, k, bad, seededRNGs(7, n), 2e-4, pBRAM); err == nil {
					t.Fatal("mis-shaped image accepted")
				}
				checkWeightSnapshot(t, k, snap, "after a failed pass")
			}
			if c := prot.Counts(); tc.protected && c.Silent == 0 {
				t.Errorf("no silent miscorrection exercised: %+v", c)
			}
		})
	}
}

// TestRunWithZeroAllocs pins the batch-of-one wrapper's steady state: on
// a warm Scratch, undervolted into the critical region so MAC faults
// are live, RunWith allocates nothing — the governor calls it for every
// canary image on every board every tick.
func TestRunWithZeroAllocs(t *testing.T) {
	d, k, inputs := buildConvNetKernel(t)
	if err := pmbus.NewAdapter(d.Board().Bus(), board.AddrVCCINT).SetVoltageMV(550); err != nil {
		t.Fatal(err)
	}
	s := NewScratch()
	rng := rand.New(rand.NewSource(5))
	var faults int64
	run := func() {
		res, err := d.RunWith(s, k, inputs[0], rng)
		if err != nil {
			t.Fatal(err)
		}
		faults += res.MACFaults
	}
	allocFree := func(what string, f func()) {
		t.Helper()
		f()
		if allocs := testing.AllocsPerRun(200, f); allocs != 0 {
			t.Fatalf("%s: %v allocs/run, want 0", what, allocs)
		}
	}
	allocFree("RunWith on a warm Scratch", run)
	if faults == 0 {
		t.Fatal("no MAC faults at 550 mV: the injection path was not exercised")
	}

	// The block kernel itself must be warm-path free too (its weight
	// panel and tap-offset table live on the stack, and the frames it
	// reads in place reuse col), serial and fanned out over macro-tiles
	// (40 rows × 100 pixels is two row tiles × two column tiles per
	// image), at stride 1 and — a 20×20 image giving the same 100 pixels
	// — at stride 2, both padded by one.
	defer quant.SetWorkers(0)
	wq := &quant.QTensor{Data: make([]int8, 40*3*3*3), Dims: []int{40, 3, 3, 3}, Scale: 1, Bits: 8}
	for i := range wq.Data {
		wq.Data[i] = int8(rng.Intn(255) - 127)
	}
	sw, err := quant.PackSparse(wq)
	if err != nil {
		t.Fatal(err)
	}
	bias := make([]int32, 40)
	var col []int8
	var acc []int32
	for _, stride := range []int{1, 2} {
		side := 10 * stride
		xq := &quant.QTensor{Data: make([]int8, 3*side*side), Dims: []int{3, side, side}, Scale: 1, Bits: 8}
		xs := []*quant.QTensor{xq, xq}
		for _, workers := range []int{1, 4} {
			quant.SetWorkers(workers)
			kernels := map[string]func() error{
				"Conv2DInt8GemmBatch": func() error {
					_, err := quant.Conv2DInt8GemmBatch(xs, wq, bias, stride, 1, &col, &acc)
					return err
				},
				"Conv2DInt8GemmBatchSparse": func() error {
					_, err := quant.Conv2DInt8GemmBatchSparse(xs, sw, bias, stride, 1, &col, &acc)
					return err
				},
			}
			for name, kernel := range kernels {
				allocFree(fmt.Sprintf("%s at stride %d, %d workers on warm buffers", name, stride, workers), func() {
					if err := kernel(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

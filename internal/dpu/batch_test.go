package dpu

import (
	"math/rand"
	"testing"

	"fpgauv/internal/quant"
	"fpgauv/internal/tensor"
)

// seededRNGs builds one deterministic fault stream per image.
func seededRNGs(base int64, n int) []*rand.Rand {
	rngs := make([]*rand.Rand, n)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(base + int64(i)*7919))
	}
	return rngs
}

// TestRunBatchMatchesSingleImageGrid is the batch-size invariance gate:
// over a batch-size grid, image i of an N-batch fed fault stream S must
// be bit-exact (probs, prediction, fault statistics) with the batch of
// one fed the same stream S. MAC faults are live (pBRAM=0, the serving
// regime: VCCBRAM stays nominal), so the per-image injection path is
// exercised, not just the clean kernels.
func TestRunBatchMatchesSingleImageGrid(t *testing.T) {
	d, k, inputs := buildConvNetKernel(t)
	const pMAC = 2e-4
	for _, batch := range []int{1, 2, 3, 5, 8} {
		in := makeBatch(inputs, batch)
		for seed := int64(1); seed <= 4; seed++ {
			rngs := seededRNGs(seed*100, batch)
			got, err := d.runBatch(nil, k, in, rngs, nil, pMAC, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i, img := range in {
				want := runOne(t, d, k, img, seed*100+int64(i)*7919, pMAC, 0)
				if got[i].Pred != want.Pred {
					t.Fatalf("batch=%d seed=%d image %d: pred %d != %d",
						batch, seed, i, got[i].Pred, want.Pred)
				}
				if got[i].MACFaults != want.MACFaults || got[i].BRAMFaults != want.BRAMFaults {
					t.Fatalf("batch=%d seed=%d image %d: faults MAC %d/%d BRAM %d/%d",
						batch, seed, i, got[i].MACFaults, want.MACFaults,
						got[i].BRAMFaults, want.BRAMFaults)
				}
				wp, gp := want.Probs.Data(), got[i].Probs.Data()
				for j := range wp {
					if wp[j] != gp[j] {
						t.Fatalf("batch=%d seed=%d image %d: probs[%d] %v != %v",
							batch, seed, i, j, gp[j], wp[j])
					}
				}
			}
		}
	}
}

// TestTraceBatchMatchesBatchOfOne checks the tracing pass's batch of N
// against per-image untraced batches of one.
func TestTraceBatchMatchesBatchOfOne(t *testing.T) {
	d, k, inputs := buildConvNetKernel(t)
	for _, batch := range []int{1, 3, 6} {
		in := makeBatch(inputs, batch)
		got, err := d.TraceBatch(nil, k, in)
		if err != nil {
			t.Fatal(err)
		}
		for i, img := range in {
			want := cleanOne(t, d, nil, k, img)
			if got[i].Pred() != want.Pred {
				t.Fatalf("batch=%d image %d: pred %d != %d", batch, i, got[i].Pred(), want.Pred)
			}
			wp, gp := want.Probs.Data(), got[i].probs
			for j := range wp {
				if wp[j] != gp[j] {
					t.Fatalf("batch=%d image %d: probs[%d] %v != %v", batch, i, j, gp[j], wp[j])
				}
			}
		}
	}
}

// TestRunBatchMatchesReferenceKernels drives the batched GEMM engine
// against the batched naive oracle under live MAC faults: identical
// predictions, probabilities and fault statistics.
func TestRunBatchMatchesReferenceKernels(t *testing.T) {
	d, k, inputs := buildConvNetKernel(t)
	const pMAC = 2e-4
	in := makeBatch(inputs, 5)
	rngs := seededRNGs(31, len(in))
	got, err := d.runBatch(nil, k, in, rngs, nil, pMAC, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.SetReferenceKernels(true)
	defer d.SetReferenceKernels(false)
	rngs = seededRNGs(31, len(in))
	ref, err := d.runBatch(nil, k, in, rngs, nil, pMAC, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if got[i].Pred != ref[i].Pred || got[i].MACFaults != ref[i].MACFaults {
			t.Fatalf("image %d: gemm %d/%d faults %d/%d",
				i, got[i].Pred, ref[i].Pred, got[i].MACFaults, ref[i].MACFaults)
		}
		rp, gp := ref[i].Probs.Data(), got[i].Probs.Data()
		for j := range rp {
			if rp[j] != gp[j] {
				t.Fatalf("image %d: probs[%d] %v != %v", i, j, gp[j], rp[j])
			}
		}
	}
}

// TestRunBatchPersistentBRAMFaults pins the batch-persistence semantics:
// BRAM flips are sampled once per batch, every image of the batch
// observes the same corrupted weights (identical inputs ⇒ identical
// outputs), each image's Result reports the batch's flip count, and the
// shared weight tensors are bit-identical after the batch.
func TestRunBatchPersistentBRAMFaults(t *testing.T) {
	d, k, inputs := buildConvNetKernel(t)
	before := make(map[int][]int8)
	for i, kn := range k.Nodes {
		if kn.WQ != nil {
			before[i] = append([]int8(nil), kn.WQ.Data...)
		}
	}

	// A batch of identical images: persistence means identical results.
	const batch = 4
	in := make([]*tensor.Tensor, batch)
	for i := range in {
		in[i] = inputs[0]
	}
	var sawFlips bool
	for seed := int64(1); seed <= 10; seed++ {
		rngs := seededRNGs(seed, batch)
		res, err := d.runBatch(nil, k, in, rngs, nil, 0, 1e-4)
		if err != nil {
			t.Fatal(err)
		}
		flips := res[0].BRAMFaults
		if flips > 0 {
			sawFlips = true
		}
		for i := 1; i < batch; i++ {
			if res[i].BRAMFaults != flips {
				t.Fatalf("seed %d: image %d reports %d flips, image 0 reports %d",
					seed, i, res[i].BRAMFaults, flips)
			}
			if res[i].Pred != res[0].Pred {
				t.Fatalf("seed %d: identical images diverged under persistent flips: %d != %d",
					seed, res[i].Pred, res[0].Pred)
			}
			p0, pi := res[0].Probs.Data(), res[i].Probs.Data()
			for j := range p0 {
				if p0[j] != pi[j] {
					t.Fatalf("seed %d image %d: probs[%d] %v != %v", seed, i, j, pi[j], p0[j])
				}
			}
		}
	}
	if !sawFlips {
		t.Fatal("expected BRAM flips at p=1e-4")
	}
	for i, want := range before {
		got := k.Nodes[i].WQ.Data
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("node %d weight[%d] not restored: %d != %d", i, j, got[j], want[j])
			}
		}
	}
}

// TestRunBatchArenaReuseDeterministic reuses one Scratch across repeated
// batches of varying sizes and checks results stay bit-identical to
// fresh-arena batches: no state leaks between batch runs.
func TestRunBatchArenaReuseDeterministic(t *testing.T) {
	d, k, inputs := buildConvNetKernel(t)
	s := NewScratch()
	for round := 0; round < 3; round++ {
		for _, batch := range []int{3, 1, 6} {
			in := makeBatch(inputs, batch)
			rngs := seededRNGs(int64(round+1), batch)
			got, err := d.runBatch(s, k, in, rngs, nil, 1e-4, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Snapshot before the fresh-arena comparison batch reuses
			// nothing (nil scratch detaches its results).
			preds := make([]int, batch)
			for i := range got {
				preds[i] = got[i].Pred
			}
			rngs = seededRNGs(int64(round+1), batch)
			want, err := d.runBatch(nil, k, in, rngs, nil, 1e-4, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if preds[i] != want[i].Pred {
					t.Fatalf("round %d batch=%d image %d: pred %d != %d",
						round, batch, i, preds[i], want[i].Pred)
				}
			}
		}
	}
}

// TestRunBatchValidation pins the batched entry points' error contract.
func TestRunBatchValidation(t *testing.T) {
	d, k, inputs := buildConvNetKernel(t)
	if res, err := d.TraceBatch(nil, k, nil); err != nil || len(res) != 0 {
		t.Fatalf("empty batch: res=%v err=%v, want none", res, err)
	}
	if _, err := d.runBatch(nil, k, makeBatch(inputs, 3), seededRNGs(1, 3), make([]*Trace, 2), 1e-4, 0); err == nil {
		t.Fatal("short trace slice accepted")
	}
	if _, err := d.runBatch(nil, k, makeBatch(inputs, 3), seededRNGs(1, 2), nil, 1e-4, 0); err == nil {
		t.Fatal("short rng slice accepted")
	}
	if _, err := d.runBatch(nil, k, makeBatch(inputs, 2), nil, nil, 1e-4, 0); err == nil {
		t.Fatal("fault injection without streams accepted")
	}
}

// TestRunBatchDeterministicAcrossWorkerCounts pins the parallel-GEMM
// determinism contract: with live MAC and BRAM fault injection, a batch
// run at 1 pool worker and at N pool workers produces bit-identical
// results (predictions, probabilities, fault statistics). The lane
// split depends only on the batch size and each image owns its fault
// stream, so the pool width must never be observable in the output.
func TestRunBatchDeterministicAcrossWorkerCounts(t *testing.T) {
	defer quant.SetWorkers(0)
	d, k, inputs := buildConvNetKernel(t)
	in := makeBatch(inputs, 6)
	type snap struct {
		pred       int
		macF, brmF int64
		probs      []float32
	}
	run := func(workers int, seed int64) []snap {
		quant.SetWorkers(workers)
		rngs := seededRNGs(seed, len(in))
		res, err := d.runBatch(nil, k, in, rngs, nil, 2e-4, 1e-4)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]snap, len(res))
		for i, r := range res {
			out[i] = snap{
				pred:  r.Pred,
				macF:  r.MACFaults,
				brmF:  r.BRAMFaults,
				probs: append([]float32(nil), r.Probs.Data()...),
			}
		}
		return out
	}
	for seed := int64(1); seed <= 4; seed++ {
		want := run(1, seed)
		for _, w := range []int{2, 4, 16} {
			got := run(w, seed)
			for i := range want {
				if got[i].pred != want[i].pred || got[i].macF != want[i].macF || got[i].brmF != want[i].brmF {
					t.Fatalf("seed=%d workers=%d image %d: pred %d/%d MAC %d/%d BRAM %d/%d",
						seed, w, i, got[i].pred, want[i].pred,
						got[i].macF, want[i].macF, got[i].brmF, want[i].brmF)
				}
				for j := range want[i].probs {
					if got[i].probs[j] != want[i].probs[j] {
						t.Fatalf("seed=%d workers=%d image %d: probs[%d] %v != %v",
							seed, w, i, j, got[i].probs[j], want[i].probs[j])
					}
				}
			}
		}
	}
}

// makeBatch cycles the base inputs into a batch of size n.
func makeBatch(inputs []*tensor.Tensor, n int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, n)
	for i := range out {
		out[i] = inputs[i%len(inputs)]
	}
	return out
}

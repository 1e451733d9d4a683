package dpu

import (
	"math/rand"
	"testing"

	"fpgauv/internal/quant"
	"fpgauv/internal/tensor"
)

// sparsifyKernel converts a compiled dense kernel to the sparse backend
// in place: a deterministic fraction of whole SparseBlockRows×1 skip
// blocks is zeroed in every weight tensor (so the sparse engine has
// blocks to elide), then each tensor is packed into the block-sparse
// BRAM image. The dense WQ stays behind as the DDR staging copy the
// naive oracle reads, exactly like a real sparse deployment.
func sparsifyKernel(t *testing.T, k *Kernel, frac float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(4242))
	for i := range k.Nodes {
		kn := &k.Nodes[i]
		if kn.WQ == nil {
			continue
		}
		m := kn.WQ.Dims[0]
		kk := len(kn.WQ.Data) / m
		for g := 0; g*quant.SparseBlockRows < m; g++ {
			i0 := g * quant.SparseBlockRows
			rows := min(quant.SparseBlockRows, m-i0)
			for p := 0; p < kk; p++ {
				if rng.Float64() >= frac {
					continue
				}
				for q := 0; q < rows; q++ {
					kn.WQ.Data[(i0+q)*kk+p] = 0
				}
			}
		}
		sw, err := quant.PackSparse(kn.WQ)
		if err != nil {
			t.Fatal(err)
		}
		kn.SW = sw
	}
	k.Backend = BackendSparse
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
}

// buildSparseConvNetKernel is buildConvNetKernel with the kernel block-
// pruned to ~50% and deployed on the sparse backend.
func buildSparseConvNetKernel(t *testing.T) (*DPU, *Kernel, []*tensor.Tensor) {
	t.Helper()
	d, k, inputs := buildConvNetKernel(t)
	sparsifyKernel(t, k, 0.5)
	return d, k, inputs
}

// TestRunBatchSparseDeterministicAcrossWorkerCounts extends the
// parallel-GEMM determinism contract to the sparse backend: with live
// MAC and BRAM fault injection (flips landing on the packed BRAM
// image), a batch run at 1 pool worker and at N pool workers produces
// bit-identical results. The sparse macro-tile partition splits only
// output coordinates — K is never split — so the pool width must never
// be observable in the output.
func TestRunBatchSparseDeterministicAcrossWorkerCounts(t *testing.T) {
	defer quant.SetWorkers(0)
	d, k, inputs := buildSparseConvNetKernel(t)
	in := makeBatch(inputs, 6)
	type snap struct {
		pred       int
		macF, brmF int64
		probs      []float32
	}
	run := func(workers int, seed int64) []snap {
		quant.SetWorkers(workers)
		rngs := seededRNGs(seed, len(in))
		res, err := d.runBatch(nil, k, in, rngs, 2e-4, 1e-4)
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
	var sawBRAM bool
	for seed := int64(1); seed <= 4; seed++ {
		want := run(1, seed)
		for i := range want {
			if want[i].brmF > 0 {
				sawBRAM = true
			}
		}
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
	if !sawBRAM {
		t.Fatal("expected BRAM flips on the packed image at p=1e-4")
	}
}

// TestSparseBackendMatchesDenseAndNaive is the dpu-level bit-exactness
// gate: the same block-pruned weights run on the sparse backend, the
// dense backend and the naive oracle must agree exactly — predictions,
// probabilities and fault statistics — for the batch of one and of N,
// with live MAC faults (BRAM flips land on per-backend
// images, so the MAC stream is the shared fault regime).
func TestSparseBackendMatchesDenseAndNaive(t *testing.T) {
	d, k, inputs := buildConvNetKernel(t)
	// Block-prune the dense kernel first so all three backends see the
	// same logical weights; capture the dense results before packing.
	sparsifyKernel(t, k, 0.5)
	k.Backend = BackendDense
	swSaved := make([]*quant.SparseWeights, len(k.Nodes))
	for i := range k.Nodes {
		swSaved[i], k.Nodes[i].SW = k.Nodes[i].SW, nil
	}

	const pMAC = 2e-4
	in := makeBatch(inputs, 5)
	runAll := func() ([]Result, []Result) {
		batch, err := d.runBatch(nil, k, in, seededRNGs(77, len(in)), pMAC, 0)
		if err != nil {
			t.Fatal(err)
		}
		single := make([]Result, len(in))
		for i, img := range in {
			single[i] = *runOne(t, d, k, img, 77+int64(i)*7919, pMAC, 0)
		}
		return batch, single
	}
	denseB, denseS := runAll()

	// Sparse backend on the packed images.
	k.Backend = BackendSparse
	for i := range k.Nodes {
		k.Nodes[i].SW = swSaved[i]
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	sparseB, sparseS := runAll()

	// Naive oracle (reads the dense WQ staging copy).
	d.SetReferenceKernels(true)
	naiveB, naiveS := runAll()
	d.SetReferenceKernels(false)

	check := func(name string, got, want []Result) {
		t.Helper()
		for i := range want {
			if got[i].Pred != want[i].Pred || got[i].MACFaults != want[i].MACFaults {
				t.Fatalf("%s image %d: pred %d/%d MAC faults %d/%d",
					name, i, got[i].Pred, want[i].Pred, got[i].MACFaults, want[i].MACFaults)
			}
			wp, gp := want[i].Probs.Data(), got[i].Probs.Data()
			for j := range wp {
				if wp[j] != gp[j] {
					t.Fatalf("%s image %d: probs[%d] %v != %v", name, i, j, gp[j], wp[j])
				}
			}
		}
	}
	check("sparse-vs-dense batch", sparseB, denseB)
	check("sparse-vs-dense single", sparseS, denseS)
	check("sparse-vs-naive batch", sparseB, naiveB)
	check("sparse-vs-naive single", sparseS, naiveS)
}

// TestSparsePackedImageIsSmaller pins the ECC economics of the sparse
// deployment: at 50% block sparsity the packed BRAM image is at most
// ~half the dense image, so the scrubber protects fewer words and the
// corrected-rate at a given VCCBRAM drops with it.
func TestSparsePackedImageIsSmaller(t *testing.T) {
	_, k, _ := buildSparseConvNetKernel(t)
	var dense, packed int
	for i := range k.Nodes {
		kn := &k.Nodes[i]
		if kn.WQ == nil {
			continue
		}
		dense += len(kn.WQ.Data)
		packed += len(kn.SW.Packed.Data)
	}
	if dense == 0 || packed == 0 {
		t.Fatal("kernel has no weights")
	}
	// The tiny test kernel's ragged row groups (output widths 6 and 5
	// round up to whole 4-row blocks) pad the packed image above the
	// ideal 0.5; real benchmark layers have multiple-of-4 widths.
	if ratio := float64(packed) / float64(dense); ratio > 0.7 {
		t.Fatalf("packed/dense = %.2f, want <= 0.7 at 50%% block sparsity", ratio)
	}
}

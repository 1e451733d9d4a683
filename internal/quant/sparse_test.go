package quant

import (
	"fmt"
	"math/rand"
	"testing"
)

// sparsify zeroes a random fraction of the tensor's codes in place —
// the unstructured pattern magnitude pruning produces.
func sparsify(rng *rand.Rand, w *QTensor, frac float64) {
	for i := range w.Data {
		if rng.Float64() < frac {
			w.Data[i] = 0
		}
	}
}

// testSparsities is the equivalence sweep required by the acceptance
// grid: dense through 90% pruned.
var testSparsities = []float64{0, 0.25, 0.5, 0.9}

// TestSparsePackUnpackRoundTrip pins the packed format: packing then
// unpacking reproduces the dense tensor exactly, the block count
// matches a direct count of nonzero 4-row column slices, and the packed
// image is the expected 4 bytes per surviving block.
func TestSparsePackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dims := range [][]int{{16, 8, 3, 3}, {7, 3, 2, 2}, {10, 64}, {1, 9}, {5, 130}} {
		for _, frac := range testSparsities {
			w := randQ(rng, 8, dims...)
			sparsify(rng, w, frac)
			sw, err := PackSparse(w)
			if err != nil {
				t.Fatal(err)
			}
			// Direct block count over the dense layout.
			m, k := sw.M, sw.K
			want := 0
			for r := 0; r < sw.Groups(); r++ {
				for p := 0; p < k; p++ {
					for q := r * SparseBlockRows; q < min((r+1)*SparseBlockRows, m); q++ {
						if w.Data[q*k+p] != 0 {
							want++
							break
						}
					}
				}
			}
			if sw.Blocks() != want {
				t.Fatalf("dims=%v frac=%.2f: %d blocks, want %d", dims, frac, sw.Blocks(), want)
			}
			if len(sw.Packed.Data) != want*SparseBlockRows {
				t.Fatalf("packed image %d bytes, want %d", len(sw.Packed.Data), want*SparseBlockRows)
			}
			var back QTensor
			sw.UnpackInto(&back)
			assertSameQ(t, fmt.Sprintf("roundtrip dims=%v frac=%.2f", dims, frac), &back, w)
		}
	}
}

// checkSparseConvEquivalence runs naive, dense-GEMM and sparse-GEMM (one-
// image batches) on the same pruned weights and requires bit-exact
// accumulators.
func checkSparseConvEquivalence(t *testing.T, x, w *QTensor, bias []int32, stride, pad int) {
	t.Helper()
	ref, refDims, refErr := Conv2DInt8(x, w, bias, stride, pad)
	sw, perr := PackSparse(w)
	if perr != nil {
		t.Fatal(perr)
	}
	var col []int8
	var acc []int32
	sh, spErr := Conv2DInt8GemmBatchSparse([]*QTensor{x}, sw, bias, stride, pad, &col, &acc)
	if (refErr == nil) != (spErr == nil) {
		t.Fatalf("error mismatch: naive=%v sparse=%v", refErr, spErr)
	}
	if refErr != nil {
		return
	}
	if sh.OutC != refDims[0] || sh.OutH != refDims[1] || sh.OutW != refDims[2] {
		t.Fatalf("dims mismatch: naive=%v sparse=%+v", refDims, sh)
	}
	for i := range ref {
		if acc[i] != ref[i] {
			t.Fatalf("acc[%d]: sparse %d != naive %d (stride=%d pad=%d x=%v w=%v workers=%d)",
				i, acc[i], ref[i], stride, pad, x.Dims, w.Dims, Workers())
		}
	}
	var dcol []int8
	var dacc []int32
	if _, err := Conv2DInt8GemmBatch([]*QTensor{x}, w, bias, stride, pad, &dcol, &dacc); err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if acc[i] != dacc[i] {
			t.Fatalf("acc[%d]: sparse %d != dense %d", i, acc[i], dacc[i])
		}
	}
}

// TestSparseConvEquivalenceGrid sweeps sparsity × worker count ×
// geometry and requires the sparse path bit-exact against both oracles.
func TestSparseConvEquivalenceGrid(t *testing.T) {
	defer SetWorkers(0)
	rng := rand.New(rand.NewSource(99))
	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		for _, frac := range testSparsities {
			for _, dims := range [][4]int{ // inC, H, W, outC
				{1, 6, 6, 1},
				{3, 8, 8, 4},
				{4, 9, 7, 5}, // non-square, ragged row group
				{8, 12, 12, 16},
				{16, 16, 16, 37}, // multi-tile M with ragged tail
			} {
				inC, h, w, outC := dims[0], dims[1], dims[2], dims[3]
				name := fmt.Sprintf("w=%d/s=%.2f/x=%dx%dx%d/o=%d", workers, frac, inC, h, w, outC)
				t.Run(name, func(t *testing.T) {
					x := randQ(rng, 8, inC, h, w)
					wt := randQ(rng, 8, outC, inC, 3, 3)
					sparsify(rng, wt, frac)
					checkSparseConvEquivalence(t, x, wt, randBias(rng, outC), 1, 1)
				})
			}
		}
	}
}

// TestSparseConvEquivalenceFuzz hammers the sparse path with seeded
// random geometry, precision and sparsity, with reused buffers.
func TestSparseConvEquivalenceFuzz(t *testing.T) {
	defer SetWorkers(0)
	rng := rand.New(rand.NewSource(4242))
	var col []int8
	var acc []int32 // reused: growth/reuse must not leak state
	for iter := 0; iter < 200; iter++ {
		SetWorkers(1 + rng.Intn(4))
		k := 1 + rng.Intn(5)
		stride := 1 + rng.Intn(3)
		pad := rng.Intn(3)
		inC := 1 + rng.Intn(6)
		outC := 1 + rng.Intn(12)
		h := k + rng.Intn(12)
		w := k + rng.Intn(12)
		bits := 2 + rng.Intn(7)
		if bits > 8 {
			bits = 8
		}
		x := randQ(rng, bits, inC, h, w)
		wt := randQ(rng, bits, outC, inC, k, k)
		sparsify(rng, wt, testSparsities[rng.Intn(len(testSparsities))])
		bias := randBias(rng, outC)
		ref, _, refErr := Conv2DInt8(x, wt, bias, stride, pad)
		if refErr != nil {
			continue
		}
		sw, err := PackSparse(wt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Conv2DInt8GemmBatchSparse([]*QTensor{x}, sw, bias, stride, pad, &col, &acc); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for i := range ref {
			if acc[i] != ref[i] {
				t.Fatalf("iter %d: acc[%d] sparse %d != naive %d", iter, i, acc[i], ref[i])
			}
		}
	}
}

// TestSparseDenseEquivalence covers the sparse FC kernel's one-image
// batch against the naive oracle across widths around the blocking
// factors, at both worker counts.
func TestSparseDenseEquivalence(t *testing.T) {
	defer SetWorkers(0)
	rng := rand.New(rand.NewSource(77))
	var acc []int32
	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		for _, frac := range testSparsities {
			for iter := 0; iter < 40; iter++ {
				in := 1 + rng.Intn(200)
				out := 1 + rng.Intn(80)
				x := randQ(rng, 8, in)
				w := randQ(rng, 8, out, in)
				sparsify(rng, w, frac)
				bias := randBias(rng, out)
				ref, refDims, err := DenseInt8(x, w, bias)
				if err != nil {
					t.Fatal(err)
				}
				sw, err := PackSparse(w)
				if err != nil {
					t.Fatal(err)
				}
				width, err := DenseInt8GemmBatchSparse([]*QTensor{x}, sw, bias, &acc)
				if err != nil {
					t.Fatal(err)
				}
				if width != refDims[0] {
					t.Fatalf("width %d != %d", width, refDims[0])
				}
				for i := range ref {
					if acc[i] != ref[i] {
						t.Fatalf("workers=%d frac=%.2f iter=%d: acc[%d] sparse %d != naive %d",
							workers, frac, iter, i, acc[i], ref[i])
					}
				}
			}
		}
	}
	// Validation parity with the dense entry points.
	x := randQ(rng, 8, 10)
	w := randQ(rng, 8, 4, 12)
	sw, err := PackSparse(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DenseInt8GemmBatchSparse([]*QTensor{x}, sw, randBias(rng, 4), &acc); err == nil {
		t.Fatal("size mismatch must fail")
	}
}

// TestSparseBatchEquivalence pins the batched sparse forms against the
// batched dense engine and the naive kernels per image, across worker
// counts and sparsities.
func TestSparseBatchEquivalence(t *testing.T) {
	defer SetWorkers(0)
	rng := rand.New(rand.NewSource(31))
	const batch = 5
	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		for _, frac := range testSparsities {
			// Conv: batch sparse vs batch dense vs per-image naive.
			w := randQ(rng, 8, 12, 6, 3, 3)
			sparsify(rng, w, frac)
			bias := randBias(rng, 12)
			sw, err := PackSparse(w)
			if err != nil {
				t.Fatal(err)
			}
			xs := make([]*QTensor, batch)
			for i := range xs {
				xs[i] = randQ(rng, 8, 6, 10, 10)
			}
			var col, dcol []int8
			var acc, dacc []int32
			sh, err := Conv2DInt8GemmBatchSparse(xs, sw, bias, 1, 1, &col, &acc)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Conv2DInt8GemmBatch(xs, w, bias, 1, 1, &dcol, &dacc); err != nil {
				t.Fatal(err)
			}
			blk := sh.AccLen()
			for b := 0; b < batch; b++ {
				sacc, _, err := Conv2DInt8(xs[b], w, bias, 1, 1)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < blk; i++ {
					if acc[b*blk+i] != dacc[b*blk+i] {
						t.Fatalf("workers=%d frac=%.2f: conv img %d acc[%d]: batch-sparse %d != batch-dense %d",
							workers, frac, b, i, acc[b*blk+i], dacc[b*blk+i])
					}
					if acc[b*blk+i] != sacc[i] {
						t.Fatalf("conv img %d acc[%d]: batch %d != naive %d", b, i, acc[b*blk+i], sacc[i])
					}
				}
			}

			// FC: batch sparse vs batch dense vs per-image naive.
			fw := randQ(rng, 8, 37, 50)
			sparsify(rng, fw, frac)
			fbias := randBias(rng, 37)
			fsw, err := PackSparse(fw)
			if err != nil {
				t.Fatal(err)
			}
			fxs := make([]*QTensor, batch)
			for i := range fxs {
				fxs[i] = randQ(rng, 8, 50)
			}
			var facc, fdacc []int32
			out, err := DenseInt8GemmBatchSparse(fxs, fsw, fbias, &facc)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DenseInt8GemmBatch(fxs, fw, fbias, &fdacc); err != nil {
				t.Fatal(err)
			}
			for b := 0; b < batch; b++ {
				fsacc, _, err := DenseInt8(fxs[b], fw, fbias)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < out; i++ {
					if facc[b*out+i] != fdacc[b*out+i] {
						t.Fatalf("workers=%d frac=%.2f: fc img %d acc[%d]: batch-sparse %d != batch-dense %d",
							workers, frac, b, i, facc[b*out+i], fdacc[b*out+i])
					}
					if facc[b*out+i] != fsacc[i] {
						t.Fatalf("fc img %d acc[%d]: batch %d != naive %d", b, i, facc[b*out+i], fsacc[i])
					}
				}
			}
		}
	}
}

// TestSparseFaultOracleBridge pins the property the executor's BRAM
// fault injection relies on: the packed image is the weight store, so a
// bit flipped in Packed.Data must be observed by the sparse kernel
// exactly as the naive kernel observes it on the unpacked tensor.
func TestSparseFaultOracleBridge(t *testing.T) {
	defer SetWorkers(0)
	rng := rand.New(rand.NewSource(13))
	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		x := randQ(rng, 8, 4, 9, 9)
		w := randQ(rng, 8, 10, 4, 3, 3)
		sparsify(rng, w, 0.5)
		bias := randBias(rng, 10)
		sw, err := PackSparse(w)
		if err != nil {
			t.Fatal(err)
		}
		// Corrupt the packed image the way the executor's transient-flip
		// path does (random bit within the quantized width).
		for f := 0; f < 8; f++ {
			idx := rng.Intn(len(sw.Packed.Data))
			sw.Packed.Data[idx] ^= 1 << uint(rng.Intn(sw.Packed.Bits))
		}
		var faulted QTensor
		sw.UnpackInto(&faulted)
		ref, _, err := Conv2DInt8(x, &faulted, bias, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		var col []int8
		var acc []int32
		if _, err := Conv2DInt8GemmBatchSparse([]*QTensor{x}, sw, bias, 1, 1, &col, &acc); err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if acc[i] != ref[i] {
				t.Fatalf("workers=%d: acc[%d] sparse-on-flipped %d != naive-on-unpacked %d",
					workers, i, acc[i], ref[i])
			}
		}
	}
}

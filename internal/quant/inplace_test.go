package quant

import (
	"fmt"
	"math/rand"
	"testing"
)

// pruneBlocks zeroes a random pct percent of w's skip blocks (the
// SparseBlockRows×1 column slices of the m×k weight matrix), so the packed
// image has blocks to skip and its offsets thin out unevenly.
func pruneBlocks(rng *rand.Rand, w *QTensor, pct int) {
	m := w.Dims[0]
	k := len(w.Data) / m
	for g := 0; g*SparseBlockRows < m; g++ {
		for p := 0; p < k; p++ {
			if rng.Intn(100) >= pct {
				continue
			}
			for i := g * SparseBlockRows; i < min((g+1)*SparseBlockRows, m); i++ {
				w.Data[i*k+p] = 0
			}
		}
	}
}

// TestConvInPlaceMatchesPatchMatrix is the geometry grid of the in-place
// lowering: every conv shape is computed three ways — the naive kernel,
// the lowering reading its taps in place from the zero-padded frames, and
// the same block kernel run over an explicit Im2colInt8 patch matrix (the
// degenerate geometry, patchRHS) — and all three must agree element for
// element, over dense and packed-sparse weights, batches of one and
// three, pool widths one and four. Kernel sizes 1–7 meet strides 1–3 and
// paddings from none to the kernel size itself (a window that can sit
// wholly in the padding); the images are non-square, or just large enough
// for a single output pixel; and the channel counts put InC·K² under,
// on and over one panel and past two, so the offset table restarts in
// the middle of a channel and of a kernel row.
func TestConvInPlaceMatchesPatchMatrix(t *testing.T) {
	defer SetWorkers(0)
	rng := rand.New(rand.NewSource(14))
	channels := map[int][]int{
		1: {2, 511, 512, 513, 1030},
		3: {2, 57, 115}, // 513 and 1035 taps
		5: {2, 21, 42},  // 525 and 1050
		7: {2, 11, 21},  // 539 and 1029
	}
	const outC = 6 // a full row group and a ragged one
	onePixel := 0
	for _, k := range []int{1, 3, 5, 7} {
		for _, inC := range channels[k] {
			for _, stride := range []int{1, 2, 3} {
				for _, pad := range []int{0, 1, 2, k} {
					for _, hw := range [][2]int{{k + 1, k + 4}, {max(1, k-2*pad), max(1, k-2*pad)}} {
						w := randQ(rng, 8, outC, inC, k, k)
						pruneBlocks(rng, w, 40)
						bias := randBias(rng, outC)
						xs := []*QTensor{randQ(rng, 8, inC, hw[0], hw[1]), randQ(rng, 8, inC, hw[0], hw[1]), randQ(rng, 8, inC, hw[0], hw[1])}
						ctx := fmt.Sprintf("k=%d inC=%d stride=%d pad=%d in=%dx%d", k, inC, stride, pad, hw[0], hw[1])
						if onePixel += checkInPlace(t, ctx, xs, w, bias, stride, pad); t.Failed() {
							return
						}
					}
				}
			}
		}
	}
	if onePixel == 0 {
		t.Error("no geometry of the grid collapsed to a single output pixel")
	}
}

// checkInPlace runs one geometry of the grid and reports 1 if its output
// is a single pixel.
func checkInPlace(t *testing.T, ctx string, xs []*QTensor, w *QTensor, bias []int32, stride, pad int) int {
	t.Helper()
	sh, err := ConvShapeOf(xs[0], w, bias, stride, pad)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	sw, err := PackSparse(w)
	if err != nil {
		t.Fatal(err)
	}
	var want []int32
	patches := make([]int8, len(xs)*sh.Pixels()*sh.Cols())
	for b, x := range xs {
		ref, _, err := Conv2DInt8(x, w, bias, stride, pad)
		if err != nil {
			t.Fatalf("%s: naive conv: %v", ctx, err)
		}
		want = append(want, ref...)
		Im2colInt8(x, sh, patches[b*sh.Pixels()*sh.Cols():])
	}
	var col []int8
	var acc []int32
	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		for _, n := range []int{1, len(xs)} {
			at := fmt.Sprintf("%s workers=%d batch=%d", ctx, workers, n)
			want := want[:n*sh.AccLen()]
			if _, err := Conv2DInt8GemmBatch(xs[:n], w, bias, stride, pad, &col, &acc); err != nil {
				t.Fatalf("%s: dense: %v", at, err)
			}
			assertSameInt32(t, at+" dense in place vs naive", acc[:len(want)], want)
			if _, err := Conv2DInt8GemmBatchSparse(xs[:n], sw, bias, stride, pad, &col, &acc); err != nil {
				t.Fatalf("%s: sparse: %v", at, err)
			}
			assertSameInt32(t, at+" sparse in place vs naive", acc[:len(want)], want)
			for name, wt := range map[string]weights{"dense": {dense: w.Data}, "sparse": {sparse: sw}} {
				got := make([]int32, len(want))
				gemmInt8Tiled(got, wt, patchRHS(patches[:n*sh.Pixels()*sh.Cols()], sh.Pixels(), sh.Cols()), sh.OutC, sh.Cols(), n, sh.Pixels(), bias, true)
				assertSameInt32(t, at+" "+name+" over the patch matrix vs naive", got, want)
			}
		}
	}
	if sh.Pixels() == 1 {
		return 1
	}
	return 0
}

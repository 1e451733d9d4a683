package quant

import (
	"math/rand"
	"testing"

	"fpgauv/internal/tensor"
)

// randomQ builds a quantized tensor with the given dims.
func randomQ(t *testing.T, rng *rand.Rand, std float64, dims ...int) *QTensor {
	t.Helper()
	x := tensor.New(dims...)
	x.FillRandn(rng, std)
	q, err := Quantize(x, 8)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestConvGemmBatchEquivalenceGrid checks the stacked multi-RHS conv GEMM
// against the naive kernel per image over a batch-size × geometry grid
// (batch 1 is the lone-image row): every image's accumulator block must
// be bit-identical.
func TestConvGemmBatchEquivalenceGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		inC, inH, inW, outC, k, stride, pad int
	}{
		{1, 5, 5, 3, 3, 1, 1},
		{3, 8, 8, 4, 3, 1, 1},
		{4, 9, 7, 6, 3, 2, 0},
		{2, 6, 6, 5, 1, 1, 0},
		{3, 12, 12, 7, 5, 2, 2},
	}
	for _, tc := range cases {
		w := randomQ(t, rng, 0.3, tc.outC, tc.inC, tc.k, tc.k)
		bias := make([]int32, tc.outC)
		for i := range bias {
			bias[i] = int32(rng.Intn(201) - 100)
		}
		for _, batch := range []int{1, 2, 3, 5, 8} {
			xs := make([]*QTensor, batch)
			for b := range xs {
				xs[b] = randomQ(t, rng, 1, tc.inC, tc.inH, tc.inW)
			}
			var col []int8
			var acc []int32
			sh, err := Conv2DInt8GemmBatch(xs, w, bias, tc.stride, tc.pad, &col, &acc)
			if err != nil {
				t.Fatalf("%+v batch=%d: %v", tc, batch, err)
			}
			for b, x := range xs {
				ref, dims, err := Conv2DInt8(x, w, bias, tc.stride, tc.pad)
				if err != nil {
					t.Fatal(err)
				}
				if dims[0] != sh.OutC || dims[1] != sh.OutH || dims[2] != sh.OutW || len(ref) != sh.AccLen() {
					t.Fatalf("%+v batch=%d: shape %+v != %v", tc, batch, sh, dims)
				}
				block := acc[b*sh.AccLen() : (b+1)*sh.AccLen()]
				for i, v := range ref {
					if block[i] != v {
						t.Fatalf("%+v batch=%d image %d: acc[%d] = %d, want %d",
							tc, batch, b, i, block[i], v)
					}
				}
			}
		}
	}
}

// TestDenseGemmBatchEquivalence checks the batched FC GEMM against the
// naive FC kernel per image across batch and layer sizes.
func TestDenseGemmBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, dims := range [][2]int{{3, 7}, {8, 16}, {13, 9}, {5, 64}} {
		out, in := dims[0], dims[1]
		w := randomQ(t, rng, 0.3, out, in)
		bias := make([]int32, out)
		for i := range bias {
			bias[i] = int32(rng.Intn(401) - 200)
		}
		for _, batch := range []int{1, 2, 3, 4, 7} {
			xs := make([]*QTensor, batch)
			for b := range xs {
				xs[b] = randomQ(t, rng, 1, in)
			}
			var acc []int32
			width, err := DenseInt8GemmBatch(xs, w, bias, &acc)
			if err != nil {
				t.Fatalf("out=%d in=%d batch=%d: %v", out, in, batch, err)
			}
			if width != out {
				t.Fatalf("width = %d, want %d", width, out)
			}
			for b, x := range xs {
				ref, _, err := DenseInt8(x, w, bias)
				if err != nil {
					t.Fatal(err)
				}
				block := acc[b*out : (b+1)*out]
				for i, v := range ref {
					if block[i] != v {
						t.Fatalf("out=%d in=%d batch=%d image %d: acc[%d] = %d, want %d",
							out, in, batch, b, i, block[i], v)
					}
				}
			}
		}
	}
}

// TestConvGemmBatchFuzz drives random geometries and batch sizes through
// the stacked lowering against the naive oracle.
func TestConvGemmBatchFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for iter := 0; iter < 40; iter++ {
		inC := 1 + rng.Intn(4)
		k := 1 + rng.Intn(3)
		inH := k + rng.Intn(8)
		inW := k + rng.Intn(8)
		outC := 1 + rng.Intn(7)
		stride := 1 + rng.Intn(2)
		pad := rng.Intn(2)
		batch := 1 + rng.Intn(6)
		w := randomQ(t, rng, 0.4, outC, inC, k, k)
		bias := make([]int32, outC)
		xs := make([]*QTensor, batch)
		for b := range xs {
			xs[b] = randomQ(t, rng, 1, inC, inH, inW)
		}
		var col []int8
		var acc []int32
		sh, err := Conv2DInt8GemmBatch(xs, w, bias, stride, pad, &col, &acc)
		if err != nil {
			// Some random geometries collapse; the naive kernel must
			// reject them identically.
			if _, _, serr := Conv2DInt8(xs[0], w, bias, stride, pad); serr == nil {
				t.Fatalf("iter %d: batch rejected what naive accepted: %v", iter, err)
			}
			continue
		}
		for b, x := range xs {
			ref, _, err := Conv2DInt8(x, w, bias, stride, pad)
			if err != nil {
				t.Fatal(err)
			}
			block := acc[b*sh.AccLen() : (b+1)*sh.AccLen()]
			for i, v := range ref {
				if block[i] != v {
					t.Fatalf("iter %d image %d: acc[%d] = %d, want %d", iter, b, i, block[i], v)
				}
			}
		}
	}
}

// TestBatchValidation pins the batched lowerings' error contract:
// empty batches and mismatched member geometry are rejected.
func TestBatchValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := randomQ(t, rng, 0.3, 4, 3, 3, 3)
	bias := make([]int32, 4)
	var col []int8
	var acc []int32
	if _, err := Conv2DInt8GemmBatch(nil, w, bias, 1, 1, &col, &acc); err == nil {
		t.Fatal("empty batch accepted")
	}
	xs := []*QTensor{
		randomQ(t, rng, 1, 3, 8, 8),
		randomQ(t, rng, 1, 3, 8, 9),
	}
	if _, err := Conv2DInt8GemmBatch(xs, w, bias, 1, 1, &col, &acc); err == nil {
		t.Fatal("mismatched batch geometry accepted")
	}
	fw := randomQ(t, rng, 0.3, 4, 16)
	fxs := []*QTensor{randomQ(t, rng, 1, 16), randomQ(t, rng, 1, 12)}
	if _, err := DenseInt8GemmBatch(fxs, fw, bias, &acc); err == nil {
		t.Fatal("mismatched fc batch accepted")
	}
}

package quant

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fpgauv/internal/tensor"
)

// randQ builds a random int8 tensor with full-range codes.
func randQ(rng *rand.Rand, bits int, dims ...int) *QTensor {
	n := 1
	for _, d := range dims {
		n *= d
	}
	q := &QTensor{Data: make([]int8, n), Dims: dims, Scale: 0.05, Bits: bits}
	qmax := int32(QMax(bits))
	for i := range q.Data {
		q.Data[i] = int8(rng.Int31n(2*qmax+1) - qmax)
	}
	return q
}

func randBias(rng *rand.Rand, n int) []int32 {
	b := make([]int32, n)
	for i := range b {
		b[i] = rng.Int31n(2001) - 1000
	}
	return b
}

// checkConvEquivalence runs the naive kernel and the GEMM lowering (a
// one-image batch) and requires bit-exact accumulators and identical
// shapes/errors.
func checkConvEquivalence(t *testing.T, x, w *QTensor, bias []int32, stride, pad int) {
	t.Helper()
	ref, refDims, refErr := Conv2DInt8(x, w, bias, stride, pad)
	var col []int8
	var acc []int32
	sh, gemmErr := Conv2DInt8GemmBatch([]*QTensor{x}, w, bias, stride, pad, &col, &acc)
	if (refErr == nil) != (gemmErr == nil) {
		t.Fatalf("error mismatch: naive=%v gemm=%v", refErr, gemmErr)
	}
	if refErr != nil {
		return
	}
	if sh.OutC != refDims[0] || sh.OutH != refDims[1] || sh.OutW != refDims[2] {
		t.Fatalf("dims mismatch: naive=%v gemm=%+v", refDims, sh)
	}
	got := acc[:sh.AccLen()]
	if len(got) != len(ref) {
		t.Fatalf("acc length %d != %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("acc[%d]: gemm %d != naive %d (stride=%d pad=%d dims x=%v w=%v)",
				i, got[i], ref[i], stride, pad, x.Dims, w.Dims)
		}
	}
}

// TestConvGemmEquivalenceGrid sweeps stride/pad/kernel/shape combinations
// and requires the GEMM lowering to be bit-exact with the naive oracle.
func TestConvGemmEquivalenceGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, k := range []int{1, 2, 3, 5} {
		for _, stride := range []int{1, 2, 3} {
			for _, pad := range []int{0, 1, 2} {
				for _, dims := range [][4]int{ // inC, H, W, outC
					{1, 6, 6, 1},
					{3, 8, 8, 4},
					{4, 9, 7, 5}, // non-square, odd sizes
					{8, 12, 12, 16},
				} {
					inC, h, w, outC := dims[0], dims[1], dims[2], dims[3]
					if h+2*pad < k || w+2*pad < k {
						continue
					}
					name := fmt.Sprintf("k=%d/s=%d/p=%d/x=%dx%dx%d/o=%d", k, stride, pad, inC, h, w, outC)
					t.Run(name, func(t *testing.T) {
						x := randQ(rng, 8, inC, h, w)
						wt := randQ(rng, 8, outC, inC, k, k)
						checkConvEquivalence(t, x, wt, randBias(rng, outC), stride, pad)
					})
				}
			}
		}
	}
}

// TestConvGemmEquivalenceFuzz hammers the two paths with seeded random
// geometry, including low-precision codes.
func TestConvGemmEquivalenceFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(1337))
	var col []int8
	var acc []int32 // reused across cases: growth/reuse must not leak state
	for iter := 0; iter < 300; iter++ {
		k := 1 + rng.Intn(5)
		stride := 1 + rng.Intn(3)
		pad := rng.Intn(3)
		inC := 1 + rng.Intn(6)
		outC := 1 + rng.Intn(9)
		h := k + rng.Intn(12)
		w := k + rng.Intn(12)
		bits := 2 + rng.Intn(7)
		if bits > 8 {
			bits = 8
		}
		x := randQ(rng, bits, inC, h, w)
		wt := randQ(rng, bits, outC, inC, k, k)
		bias := randBias(rng, outC)
		ref, refDims, refErr := Conv2DInt8(x, wt, bias, stride, pad)
		sh, gemmErr := Conv2DInt8GemmBatch([]*QTensor{x}, wt, bias, stride, pad, &col, &acc)
		if (refErr == nil) != (gemmErr == nil) {
			t.Fatalf("iter %d: error mismatch: naive=%v gemm=%v", iter, refErr, gemmErr)
		}
		if refErr != nil {
			continue
		}
		if sh.OutC != refDims[0] || sh.OutH != refDims[1] || sh.OutW != refDims[2] {
			t.Fatalf("iter %d: dims mismatch", iter)
		}
		for i := range ref {
			if acc[i] != ref[i] {
				t.Fatalf("iter %d: acc[%d] gemm %d != naive %d", iter, i, acc[i], ref[i])
			}
		}
	}
}

// TestDenseGemmEquivalence covers the FC lowering's one-image batch
// against the naive FC kernel, including widths around the
// register-blocking factor.
func TestDenseGemmEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var acc []int32
	for iter := 0; iter < 200; iter++ {
		in := 1 + rng.Intn(200)
		out := 1 + rng.Intn(40)
		x := randQ(rng, 8, in)
		w := randQ(rng, 8, out, in)
		bias := randBias(rng, out)
		ref, refDims, err := DenseInt8(x, w, bias)
		if err != nil {
			t.Fatal(err)
		}
		width, err := DenseInt8GemmBatch([]*QTensor{x}, w, bias, &acc)
		if err != nil {
			t.Fatal(err)
		}
		if width != refDims[0] {
			t.Fatalf("width %d != %d", width, refDims[0])
		}
		for i := range ref {
			if acc[i] != ref[i] {
				t.Fatalf("iter %d: acc[%d] gemm %d != naive %d", iter, i, acc[i], ref[i])
			}
		}
	}
	// Validation parity with the naive kernel.
	x := randQ(rng, 8, 10)
	w := randQ(rng, 8, 4, 12)
	if _, err := DenseInt8GemmBatch([]*QTensor{x}, w, randBias(rng, 4), &acc); err == nil {
		t.Fatal("size mismatch must fail")
	}
}

// TestRequantizeIntoMatchesReference checks the fused epilogue against
// the definition — clamp(round-to-even(acc·accScale/outScale)), then
// ReLUQInto for the fused-ReLU form — and its buffer-reuse semantics.
func TestRequantizeIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	acc := make([]int32, 500)
	for i := range acc {
		acc[i] = rng.Int31() - 1<<30
	}
	dims := []int{5, 10, 10}
	for _, bits := range []int{8, 4, 2} {
		ref := &QTensor{Data: make([]int8, len(acc)), Dims: dims, Scale: 0.07, Bits: bits}
		ratio := float64(float32(0.003)) / float64(float32(0.07))
		for i, a := range acc {
			ref.Data[i] = clampToInt8(int32(math.RoundToEven(float64(a)*ratio)), QMax(bits))
		}
		var dst QTensor
		if err := RequantizeInto(&dst, acc, 0.003, 0.07, bits, false, dims...); err != nil {
			t.Fatal(err)
		}
		assertSameQ(t, fmt.Sprintf("bits=%d", bits), &dst, ref)
		// Fused ReLU == requantize then ReLU.
		var refRelu QTensor
		ReLUQInto(&refRelu, ref)
		if err := RequantizeInto(&dst, acc, 0.003, 0.07, bits, true, dims...); err != nil {
			t.Fatal(err)
		}
		assertSameQ(t, fmt.Sprintf("bits=%d relu", bits), &dst, &refRelu)
	}
	var dst QTensor
	if err := RequantizeInto(&dst, acc, 0.003, -1, 8, false, dims...); err == nil {
		t.Fatal("negative scale must fail")
	}
	if err := RequantizeInto(&dst, acc, 0.003, 1, 11, false, dims...); err == nil {
		t.Fatal("invalid bits must fail")
	}
}

// TestIntoVariantsMatchAllocating pins the pool/add/concat/relu Into
// kernels' reuse contract: a destination warmed on a larger, unrelated
// tensor must come out identical to a fresh destination (the allocating
// case) — no stale data, dims or header survives reuse.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dirty := func() *QTensor {
		d := randQ(rng, 4, 9, 11, 11)
		d.Scale = 7
		return d
	}
	x := randQ(rng, 8, 6, 9, 9)
	for _, global := range []bool{false, true} {
		var want QTensor
		if err := MaxPoolQInto(&want, x, 2, 2, global); err != nil {
			t.Fatal(err)
		}
		got := dirty()
		if err := MaxPoolQInto(got, x, 2, 2, global); err != nil {
			t.Fatal(err)
		}
		assertSameQ(t, "maxpool", got, &want)
		if err := AvgPoolQInto(&want, x, 3, 2, global); err != nil {
			t.Fatal(err)
		}
		if err := AvgPoolQInto(got, x, 3, 2, global); err != nil {
			t.Fatal(err)
		}
		assertSameQ(t, "avgpool", got, &want)
	}

	a := randQ(rng, 8, 4, 5, 5)
	b := randQ(rng, 8, 4, 5, 5)
	b.Scale = 0.09
	var wantAdd QTensor
	if err := AddQInto(&wantAdd, a, b, 0.11, 8); err != nil {
		t.Fatal(err)
	}
	gotAdd := dirty()
	if err := AddQInto(gotAdd, a, b, 0.11, 8); err != nil {
		t.Fatal(err)
	}
	assertSameQ(t, "add", gotAdd, &wantAdd)

	var wantCat QTensor
	if err := ConcatQInto(&wantCat, []*QTensor{a, b}, 0.13, 8); err != nil {
		t.Fatal(err)
	}
	gotCat := dirty()
	if err := ConcatQInto(gotCat, []*QTensor{a, b}, 0.13, 8); err != nil {
		t.Fatal(err)
	}
	assertSameQ(t, "concat", gotCat, &wantCat)

	var wantRelu QTensor
	ReLUQInto(&wantRelu, a)
	gotRelu := dirty()
	ReLUQInto(gotRelu, a)
	assertSameQ(t, "relu", gotRelu, &wantRelu)
}

func assertSameQ(t *testing.T, what string, got, want *QTensor) {
	t.Helper()
	if len(got.Data) != len(want.Data) || got.Scale != want.Scale || got.Bits != want.Bits {
		t.Fatalf("%s: header mismatch", what)
	}
	if fmt.Sprint(got.Dims) != fmt.Sprint(want.Dims) {
		t.Fatalf("%s: dims %v != %v", what, got.Dims, want.Dims)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: code[%d] %d != %d", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestQuantizeWithScaleIntoReuse verifies staging-tensor reuse keeps
// results identical across differently-shaped inputs.
func TestQuantizeWithScaleIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	big := tensor.New(4, 8, 8)
	big.FillRandn(rng, 1)
	small := tensor.New(2, 3, 3)
	small.FillRandn(rng, 1)
	var dst QTensor
	for _, tt := range []*tensor.Tensor{big, small, big} {
		want, err := QuantizeWithScale(tt, 0.02, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := QuantizeWithScaleInto(&dst, tt, 0.02, 8); err != nil {
			t.Fatal(err)
		}
		assertSameQ(t, "quantize", &dst, want)
	}
}

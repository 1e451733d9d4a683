package quant

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The tests in this file pin the two-lane inner step (gemm.go): exact
// lane splitting at and beyond the 2¹⁷-tap bound, reductions that span
// several panels, panels rebuilt from the live weight bytes on every
// call, and a native fuzz target asserting dense == sparse == naive
// element for element.

// checkConvLanes requires the dense and the sparse conv lowering of the
// batch to equal the naive kernel on every image, element for element.
func checkConvLanes(t *testing.T, ctx string, xs []*QTensor, w *QTensor, bias []int32, stride, pad int) []int32 {
	t.Helper()
	var want []int32
	for _, x := range xs {
		ref, _, err := Conv2DInt8(x, w, bias, stride, pad)
		if err != nil {
			t.Fatalf("%s: naive conv: %v", ctx, err)
		}
		want = append(want, ref...)
	}
	var col []int8
	var acc []int32
	sh, err := Conv2DInt8GemmBatch(xs, w, bias, stride, pad, &col, &acc)
	if err != nil {
		t.Fatalf("%s: dense conv: %v", ctx, err)
	}
	assertSameInt32(t, ctx+" dense conv vs naive", acc[:len(xs)*sh.AccLen()], want)
	sw, err := PackSparse(w)
	if err != nil {
		t.Fatal(err)
	}
	var sacc []int32
	if _, err := Conv2DInt8GemmBatchSparse(xs, sw, bias, stride, pad, &col, &sacc); err != nil {
		t.Fatalf("%s: sparse conv: %v", ctx, err)
	}
	assertSameInt32(t, ctx+" sparse conv vs naive", sacc[:len(want)], want)
	return want
}

// checkDenseLanes is checkConvLanes for the FC lowering.
func checkDenseLanes(t *testing.T, ctx string, xs []*QTensor, w *QTensor, bias []int32) []int32 {
	t.Helper()
	var want []int32
	for _, x := range xs {
		ref, _, err := DenseInt8(x, w, bias)
		if err != nil {
			t.Fatalf("%s: naive fc: %v", ctx, err)
		}
		want = append(want, ref...)
	}
	var acc []int32
	if _, err := DenseInt8GemmBatch(xs, w, bias, &acc); err != nil {
		t.Fatalf("%s: dense fc: %v", ctx, err)
	}
	assertSameInt32(t, ctx+" dense fc vs naive", acc[:len(want)], want)
	sw, err := PackSparse(w)
	if err != nil {
		t.Fatal(err)
	}
	var sacc []int32
	if _, err := DenseInt8GemmBatchSparse(xs, sw, bias, &sacc); err != nil {
		t.Fatalf("%s: sparse fc: %v", ctx, err)
	}
	assertSameInt32(t, ctx+" sparse fc vs naive", sacc[:len(want)], want)
	return want
}

// filledQ builds a tensor whose every code is v.
func filledQ(v int8, dims ...int) *QTensor {
	n := 1
	for _, d := range dims {
		n *= d
	}
	q := &QTensor{Data: make([]int8, n), Dims: dims, Scale: 1, Bits: 8}
	for i := range q.Data {
		q.Data[i] = v
	}
	return q
}

// TestGemmLanesLongReduction is the grid row past the lane bound: at
// K = 2¹⁷+3 with every weight −128 a lane's full-K sum no longer fits
// int32, so the kernel must split the lanes mid-reduction and carry on
// modulo 2³² — with biases at both int32 extremes so the carry wraps.
// Activations of −128 drive each span to the positive bound 2³⁰; +127
// drives it negative, through the borrow the split has to cancel. Five
// output rows (a full group and a ragged one) × three columns (a pair
// and an odd one), dense and sparse, conv and FC.
func TestGemmLanesLongReduction(t *testing.T) {
	const inC, kh = 107, 35 // 107·35·35 = 2¹⁷+3
	const k = inC * kh * kh
	if k != 1<<17+3 {
		t.Fatalf("K = %d does not straddle the lane bound", k)
	}
	bias := []int32{math.MinInt32, math.MaxInt32, math.MinInt32, math.MaxInt32, math.MinInt32}
	defer SetWorkers(0)
	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		for _, act := range []int8{-128, 127} {
			ctx := fmt.Sprintf("workers=%d act=%d", workers, act)
			conv := filledQ(-128, 5, inC, kh, kh)
			checkConvLanes(t, ctx, []*QTensor{filledQ(act, inC, kh, kh+2)}, conv, bias, 1, 0)
			fc := filledQ(-128, 5, k)
			checkDenseLanes(t, ctx, []*QTensor{filledQ(act, k), filledQ(act, k), filledQ(act, k)}, fc, bias)
		}
	}
}

// TestGemmLanesPanelSpans walks reductions around and past the panel
// length with random operands, so a span that reads the wrong weight
// bytes, activations, bitmap words or packed-block offset cannot hide
// behind uniform data: K one short of a panel, exactly one, one over,
// and two and a bit. Unstructured zeros leave most blocks alive; the
// second pass prunes every block of the middle span, which the sparse
// kernel then skips outright. Six rows (a ragged group) × three columns.
func TestGemmLanesPanelSpans(t *testing.T) {
	defer SetWorkers(0)
	rng := rand.New(rand.NewSource(31))
	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		for _, k := range []int{panelTaps - 1, panelTaps, panelTaps + 1, 2*panelTaps + 37} {
			for _, emptySpan := range []bool{false, true} {
				w := randQ(rng, 8, 6, k)
				sparsify(rng, w, 0.3)
				for p := panelTaps; emptySpan && p < min(k, 2*panelTaps); p++ {
					for i := 0; i < 6; i++ {
						w.Data[i*k+p] = 0
					}
				}
				bias := randBias(rng, 6)
				xs := []*QTensor{randQ(rng, 8, k), randQ(rng, 8, k), randQ(rng, 8, k)}
				ctx := fmt.Sprintf("workers=%d k=%d emptySpan=%v", workers, k, emptySpan)
				checkDenseLanes(t, ctx, xs, w, bias)
				conv := &QTensor{Data: w.Data, Dims: []int{6, k, 1, 1}, Scale: w.Scale, Bits: 8}
				checkConvLanes(t, ctx, []*QTensor{randQ(rng, 8, k, 3, 1)}, conv, bias, 1, 0)
			}
		}
	}
}

// TestGemmLanesLiveWeights fails if a packed weight panel outlives the
// call that built it: bytes of the weight image flipped in place between
// two calls on the same operands must be seen by the second call exactly
// as the naive kernel sees them, and undoing the flips must give the
// first result back. The dense image is WQ.Data; the sparse image is
// SW.Packed.Data, compared through UnpackInto. The same holds for the
// conv frames in col: they are rebuilt from the activations every call.
func TestGemmLanesLiveWeights(t *testing.T) {
	defer SetWorkers(0)
	rng := rand.New(rand.NewSource(29))
	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		convW := randQ(rng, 8, 38, 3, 3, 3)
		sparsify(rng, convW, 0.3)
		convX := []*QTensor{randQ(rng, 8, 3, 10, 9), randQ(rng, 8, 3, 10, 9)}
		fcW := randQ(rng, 8, 38, 45)
		sparsify(rng, fcW, 0.3)
		fcX := []*QTensor{randQ(rng, 8, 45), randQ(rng, 8, 45), randQ(rng, 8, 45), randQ(rng, 8, 45), randQ(rng, 8, 45)}
		bias := randBias(rng, 38)

		type image struct {
			name string
			data func() []int8 // the live weight bytes the kernel reads
			run  func() []int32
			ref  func() []int32 // naive kernel on the image's current bytes
		}
		var col []int8
		var acc []int32
		convSW, err := PackSparse(convW)
		if err != nil {
			t.Fatal(err)
		}
		fcSW, err := PackSparse(fcW)
		if err != nil {
			t.Fatal(err)
		}
		naiveConv := func(w *QTensor) []int32 {
			var out []int32
			for _, x := range convX {
				ref, _, err := Conv2DInt8(x, w, bias, 1, 1)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, ref...)
			}
			return out
		}
		naiveFC := func(w *QTensor) []int32 {
			var out []int32
			for _, x := range fcX {
				ref, _, err := DenseInt8(x, w, bias)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, ref...)
			}
			return out
		}
		unpacked := func(sw *SparseWeights) *QTensor {
			var w QTensor
			sw.UnpackInto(&w)
			return &w
		}
		images := []image{
			{"dense conv", func() []int8 { return convW.Data }, func() []int32 {
				sh, err := Conv2DInt8GemmBatch(convX, convW, bias, 1, 1, &col, &acc)
				if err != nil {
					t.Fatal(err)
				}
				return acc[:len(convX)*sh.AccLen()]
			}, func() []int32 { return naiveConv(convW) }},
			{"sparse conv", func() []int8 { return convSW.Packed.Data }, func() []int32 {
				sh, err := Conv2DInt8GemmBatchSparse(convX, convSW, bias, 1, 1, &col, &acc)
				if err != nil {
					t.Fatal(err)
				}
				return acc[:len(convX)*sh.AccLen()]
			}, func() []int32 { return naiveConv(unpacked(convSW)) }},
			{"dense fc", func() []int8 { return fcW.Data }, func() []int32 {
				out, err := DenseInt8GemmBatch(fcX, fcW, bias, &acc)
				if err != nil {
					t.Fatal(err)
				}
				return acc[:len(fcX)*out]
			}, func() []int32 { return naiveFC(fcW) }},
			{"sparse fc", func() []int8 { return fcSW.Packed.Data }, func() []int32 {
				out, err := DenseInt8GemmBatchSparse(fcX, fcSW, bias, &acc)
				if err != nil {
					t.Fatal(err)
				}
				return acc[:len(fcX)*out]
			}, func() []int32 { return naiveFC(unpacked(fcSW)) }},
		}
		for _, im := range images {
			ctx := fmt.Sprintf("workers=%d %s", workers, im.name)
			first := append([]int32(nil), im.run()...)
			assertSameInt32(t, ctx+" clean", first, im.ref())
			data := im.data()
			saved := append([]int8(nil), data...)
			for f := 0; f < 24; f++ {
				data[rng.Intn(len(data))] ^= int8(1) << uint(rng.Intn(8))
			}
			flipped := append([]int32(nil), im.run()...)
			assertSameInt32(t, ctx+" on flipped weights", flipped, im.ref())
			same := true
			for i := range first {
				same = same && first[i] == flipped[i]
			}
			if same {
				t.Fatalf("%s: 24 flipped weight bytes changed no accumulator", ctx)
			}
			copy(data, saved)
			assertSameInt32(t, ctx+" after restore", im.run(), first)
		}
		// The frames the conv kernel reads in place are per call as well:
		// new activations in the same tensors, same col buffer, are seen.
		for _, x := range convX {
			for i := range x.Data {
				x.Data[i] = ^x.Data[i]
			}
		}
		for _, im := range images[:2] {
			assertSameInt32(t, fmt.Sprintf("workers=%d %s on new activations", workers, im.name), im.run(), im.ref())
		}
	}
}

// FuzzGemmLanes drives the block kernel through all four lowerings on
// fuzzed shapes and raw operand bytes (so −128 and every sign pattern
// occur), full-range biases that wrap, ragged row groups and odd column
// counts, and a random mask of zeroed skip blocks for the sparse twin,
// asserting dense == sparse == naive element for element. The conv form
// is a 1×1 convolution (m filters over k channels × n pixels), the FC
// form n images of k features: the same m×k·k×n product in both output
// layouts. The upper half of kRaw adds a panel to k, so the reduction
// runs in two spans. A third product is a real convolution whose
// geometry comes from the first raw bytes — kernel 1/3/5/7, stride 1–3,
// padding 0 to K+1, a 1–6 × 1–6 image grown until one window fits, as
// many channels as bring InC·K² to about k, one or two images — so the
// in-place addressing (padded frames, windows, offset tables that restart
// inside a channel) is fuzzed against the naive kernel too.
func FuzzGemmLanes(f *testing.F) {
	// The seed corpus proper is testdata/fuzz/FuzzGemmLanes.
	f.Add(uint8(36), uint8(129), uint8(66), uint8(1), int64(3), uint8(25), []byte("two lanes, one multiply"))
	f.Fuzz(func(t *testing.T, mRaw, kRaw, nRaw, workers uint8, seed int64, zeroPct uint8, raw []byte) {
		m, k, n := 1+int(mRaw)%40, 1+int(kRaw)%130, 1+int(nRaw)%70
		if kRaw >= 130 {
			k += panelTaps
		}
		SetWorkers(1 + int(workers)%4)
		defer SetWorkers(0)
		if len(raw) == 0 {
			raw = []byte{0x80}
		}
		next := 0
		code := func() int8 {
			v := int8(raw[next%len(raw)])
			next++
			return v
		}
		rng := rand.New(rand.NewSource(seed))
		w := &QTensor{Data: make([]int8, m*k), Dims: []int{m, k}, Scale: 1, Bits: 8}
		for i := range w.Data {
			w.Data[i] = code()
		}
		// Zero whole skip blocks so the sparse walk has something to skip.
		pruneBlocks(rng, w, int(zeroPct)%101)
		bias := make([]int32, m)
		for i := range bias {
			bias[i] = int32(rng.Uint32())
		}
		xs := make([]*QTensor, n)
		for b := range xs {
			xs[b] = &QTensor{Data: make([]int8, k), Dims: []int{k}, Scale: 1, Bits: 8}
			for i := range xs[b].Data {
				xs[b].Data[i] = code()
			}
		}
		ctx := fmt.Sprintf("m=%d k=%d n=%d workers=%d", m, k, n, Workers())
		fc := checkDenseLanes(t, ctx, xs, w, bias)

		// The same product as a 1×1 conv: pixel j of channel p is image
		// j's feature p; the conv output is the FC output transposed.
		img := &QTensor{Data: make([]int8, k*n), Dims: []int{k, n, 1}, Scale: 1, Bits: 8}
		for j, x := range xs {
			for p, v := range x.Data {
				img.Data[p*n+j] = v
			}
		}
		conv := checkConvLanes(t, ctx, []*QTensor{img}, &QTensor{Data: w.Data, Dims: []int{m, k, 1, 1}, Scale: 1, Bits: 8}, bias, 1, 0)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if conv[i*n+j] != fc[j*m+i] {
					t.Fatalf("%s: conv[%d,%d] = %d != fc %d", ctx, i, j, conv[i*n+j], fc[j*m+i])
				}
			}
		}

		// A real convolution through the in-place addressing.
		geo := func(i int) int { return int(raw[i%len(raw)]) }
		kk, stride := 1+2*(geo(0)%4), 1+geo(1)%3
		pad := geo(2) % (kk + 2)
		h, wd := max(1+geo(3)%6, kk-2*pad), max(1+geo(4)%6, kk-2*pad)
		inC := max(1, k/(kk*kk))
		cw := &QTensor{Data: make([]int8, m*inC*kk*kk), Dims: []int{m, inC, kk, kk}, Scale: 1, Bits: 8}
		for i := range cw.Data {
			cw.Data[i] = code()
		}
		pruneBlocks(rng, cw, int(zeroPct)%101)
		imgs := make([]*QTensor, 1+geo(5)%2)
		for b := range imgs {
			imgs[b] = &QTensor{Data: make([]int8, inC*h*wd), Dims: []int{inC, h, wd}, Scale: 1, Bits: 8}
			for i := range imgs[b].Data {
				imgs[b].Data[i] = code()
			}
		}
		checkConvLanes(t, fmt.Sprintf("%s conv k=%d stride=%d pad=%d inC=%d in=%dx%d", ctx, kk, stride, pad, inC, h, wd), imgs, cw, bias, stride, pad)
	})
}

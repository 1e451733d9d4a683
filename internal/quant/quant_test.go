package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fpgauv/internal/nn"
	"fpgauv/internal/tensor"
)

func TestQuantizeRoundTripError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(256)
	x.FillRandn(rng, 1)
	for bits := MinBits; bits <= MaxBits; bits++ {
		q, err := Quantize(x, bits)
		if err != nil {
			t.Fatal(err)
		}
		back := q.Dequantize()
		var worst float64
		for i, v := range x.Data() {
			if e := math.Abs(float64(v - back.Data()[i])); e > worst {
				worst = e
			}
		}
		// Error bounded by one quantization step.
		if worst > float64(q.Scale) {
			t.Errorf("INT%d: max error %.4f exceeds one step %.4f", bits, worst, q.Scale)
		}
	}
}

func TestLowerPrecisionIsCoarser(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.New(512)
	x.FillRandn(rng, 1)
	prev := -1.0
	for bits := MaxBits; bits >= MinBits; bits-- {
		q, err := Quantize(x, bits)
		if err != nil {
			t.Fatal(err)
		}
		back := q.Dequantize()
		var mse float64
		for i, v := range x.Data() {
			d := float64(v - back.Data()[i])
			mse += d * d
		}
		if prev >= 0 && mse < prev {
			t.Fatalf("INT%d should have more error than INT%d", bits, bits+1)
		}
		prev = mse
	}
}

func TestQuantizeValidation(t *testing.T) {
	x := tensor.New(4)
	if _, err := Quantize(x, 1); err == nil {
		t.Fatal("INT1 unsupported")
	}
	if _, err := Quantize(x, 9); err == nil {
		t.Fatal("INT9 unsupported")
	}
	if _, err := QuantizeWithScale(x, -1, 8); err == nil {
		t.Fatal("negative scale must fail")
	}
}

// Values beyond int32 and non-finite ones saturate by sign (NaN → 0)
// on every platform; in-range values are untouched by the clamp.
func TestQuantizeSaturatesBySign(t *testing.T) {
	inf := float32(math.Inf(1))
	x, err := tensor.FromSlice([]float32{3e38, 1e12, inf, float32(math.NaN()), -3e38, -1e12, -inf,
		1.0, -1.0, 3.81, -3.81, 0.015, 0.045, 5}, 14)
	if err != nil {
		t.Fatal(err)
	}
	q, err := QuantizeWithScale(x, 0.03, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []int8{127, 127, 127, 0, -127, -127, -127, 33, -33, 127, -127, 0, 2, 127}
	for i, w := range want {
		if q.Data[i] != w {
			t.Errorf("quantize(%g) = %d, want %d", x.Data()[i], q.Data[i], w)
		}
	}
}

func TestQMax(t *testing.T) {
	if QMax(8) != 127 || QMax(4) != 7 || QMax(2) != 1 {
		t.Fatal("qmax values")
	}
}

func TestCodesStayInRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64, bitsRaw uint8) bool {
		bits := MinBits + int(bitsRaw)%(MaxBits-MinBits+1)
		r := rand.New(rand.NewSource(seed))
		x := tensor.New(64)
		x.FillRandn(r, float64(1+r.Intn(100)))
		q, err := Quantize(x, bits)
		if err != nil {
			return false
		}
		qmax := int8(QMax(bits))
		for _, v := range q.Data {
			if v > qmax || v < -qmax {
				return false
			}
		}
		return true
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// quantized conv must track the float conv closely at INT8.
func TestConvInt8MatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	conv := nn.NewConv2D(rng, 3, 8, 3, 1, 1)
	in := tensor.New(3, 12, 12)
	in.FillRandn(rng, 1)

	ref, err := conv.Forward([]*tensor.Tensor{in})
	if err != nil {
		t.Fatal(err)
	}

	xq, err := Quantize(in, 8)
	if err != nil {
		t.Fatal(err)
	}
	wq, err := Quantize(conv.Weights, 8)
	if err != nil {
		t.Fatal(err)
	}
	accScale := xq.Scale * wq.Scale
	biasQ := QuantizeBias(conv.Bias, accScale)
	acc, dims, err := Conv2DInt8(xq, wq, biasQ, conv.Stride, conv.Pad)
	if err != nil {
		t.Fatal(err)
	}
	outScale := ScaleFor(ref.MaxAbs(), 8)
	got := &QTensor{}
	if err := RequantizeInto(got, acc, accScale, outScale, 8, false, dims...); err != nil {
		t.Fatal(err)
	}
	back := got.Dequantize()
	var worst float64
	for i, v := range ref.Data() {
		if e := math.Abs(float64(v - back.Data()[i])); e > worst {
			worst = e
		}
	}
	// INT8 conv should track float within a few output steps.
	if worst > 4*float64(outScale) {
		t.Fatalf("INT8 conv error %.5f exceeds 4 steps (%.5f)", worst, 4*outScale)
	}
}

func TestDenseInt8MatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	fc := nn.NewDense(rng, 64, 10)
	in := tensor.New(64)
	in.FillRandn(rng, 1)
	ref, err := fc.Forward([]*tensor.Tensor{in})
	if err != nil {
		t.Fatal(err)
	}
	xq, _ := Quantize(in, 8)
	wq, _ := Quantize(fc.Weights, 8)
	accScale := xq.Scale * wq.Scale
	acc, dims, err := DenseInt8(xq, wq, QuantizeBias(fc.Bias, accScale))
	if err != nil {
		t.Fatal(err)
	}
	outScale := ScaleFor(ref.MaxAbs(), 8)
	got := &QTensor{}
	if err := RequantizeInto(got, acc, accScale, outScale, 8, false, dims...); err != nil {
		t.Fatal(err)
	}
	back := got.Dequantize()
	// The argmax must survive INT8 quantization.
	if ref.ArgMax() != back.ArgMax() {
		t.Fatal("INT8 fc changed the argmax on random data")
	}
}

func TestKernelValidation(t *testing.T) {
	x := &QTensor{Data: make([]int8, 12), Dims: []int{3, 2, 2}, Scale: 1, Bits: 8}
	w := &QTensor{Data: make([]int8, 8), Dims: []int{2, 1, 2, 2}, Scale: 1, Bits: 8}
	if _, _, err := Conv2DInt8(x, w, []int32{0, 0}, 1, 0); err == nil {
		t.Fatal("channel mismatch must fail")
	}
	w2 := &QTensor{Data: make([]int8, 24), Dims: []int{2, 3, 2, 2}, Scale: 1, Bits: 8}
	if _, _, err := Conv2DInt8(x, w2, []int32{0}, 1, 0); err == nil {
		t.Fatal("bias length mismatch must fail")
	}
	if _, _, err := Conv2DInt8(x, w2, []int32{0, 0}, 0, 0); err == nil {
		t.Fatal("zero stride must fail")
	}
	fcw := &QTensor{Data: make([]int8, 24), Dims: []int{2, 12}, Scale: 1, Bits: 8}
	if _, _, err := DenseInt8(x, fcw, []int32{0, 0}); err != nil {
		t.Fatalf("fc on flattened conv output should work: %v", err)
	}
	badw := &QTensor{Data: make([]int8, 10), Dims: []int{2, 5}, Scale: 1, Bits: 8}
	if _, _, err := DenseInt8(x, badw, []int32{0, 0}); err == nil {
		t.Fatal("fc input mismatch must fail")
	}
}

func TestReLUQ(t *testing.T) {
	q := &QTensor{Data: []int8{-5, 0, 5}, Dims: []int{3}, Scale: 1, Bits: 8}
	var out QTensor
	ReLUQInto(&out, q)
	if out.Data[0] != 0 || out.Data[2] != 5 {
		t.Fatal("reluq")
	}
}

func TestPoolQ(t *testing.T) {
	q := &QTensor{
		Data:  []int8{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		Dims:  []int{1, 4, 4},
		Scale: 0.5, Bits: 8,
	}
	mp, ap, g := &QTensor{}, &QTensor{}, &QTensor{}
	if err := MaxPoolQInto(mp, q, 2, 2, false); err != nil {
		t.Fatal(err)
	}
	if mp.Data[0] != 6 || mp.Data[3] != 16 || mp.Scale != 0.5 {
		t.Fatalf("maxpoolq %v", mp.Data)
	}
	if err := AvgPoolQInto(ap, q, 2, 2, false); err != nil {
		t.Fatal(err)
	}
	if ap.Data[0] != 4 { // (1+2+5+6)/4 = 3.5 → rounds away from zero to 4
		t.Fatalf("avgpoolq[0] = %d", ap.Data[0])
	}
	if err := AvgPoolQInto(g, q, 0, 0, true); err != nil {
		t.Fatal(err)
	}
	if len(g.Data) != 1 || g.Data[0] != 9 { // mean 8.5 → 9
		t.Fatalf("global avgpoolq = %v", g.Data)
	}
}

// TestMaxPool2MatchesGenericLoop holds the 2×2 max-pool path to the
// generic window loop bit for bit: every stride, odd and even maps
// (ragged right/bottom columns the windows never reach), the full int8
// range including -128, and post-ReLU-like half-zero data.
func TestMaxPool2MatchesGenericLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 300; trial++ {
		c, h, w := 1+rng.Intn(3), 2+rng.Intn(9), 2+rng.Intn(9)
		stride := 1 + rng.Intn(3)
		x := &QTensor{Dims: []int{c, h, w}, Data: make([]int8, c*h*w), Scale: 0.25, Bits: 8}
		for i := range x.Data {
			if trial%2 == 0 || rng.Intn(2) == 0 {
				x.Data[i] = int8(rng.Intn(256) - 128)
			}
		}
		var got QTensor
		if err := MaxPoolQInto(&got, x, 2, stride, false); err != nil {
			t.Fatal(err)
		}
		outH, outW := (h-2)/stride+1, (w-2)/stride+1
		if got.Dims[0] != c || got.Dims[1] != outH || got.Dims[2] != outW || got.Scale != x.Scale {
			t.Fatalf("trial %d: dims %v scale %g", trial, got.Dims, got.Scale)
		}
		want := make([]int8, c*outH*outW)
		poolWindows(want, x.Data, c, h, w, outH, outW, 2, stride, true)
		for i := range want {
			if got.Data[i] != want[i] {
				t.Fatalf("trial %d (%dx%dx%d stride %d): out[%d] = %d, generic loop %d", trial, c, h, w, stride, i, got.Data[i], want[i])
			}
		}
	}
}

func TestAddQAndConcatQ(t *testing.T) {
	a := &QTensor{Data: []int8{10, 20}, Dims: []int{2, 1, 1}, Scale: 0.1, Bits: 8}
	b := &QTensor{Data: []int8{5, 5}, Dims: []int{2, 1, 1}, Scale: 0.2, Bits: 8}
	// Real values: a = {1.0, 2.0}, b = {1.0, 1.0}; sum = {2.0, 3.0}.
	sum, cat := &QTensor{}, &QTensor{}
	if err := AddQInto(sum, a, b, 0.1, 8); err != nil {
		t.Fatal(err)
	}
	if sum.Data[0] != 20 || sum.Data[1] != 30 {
		t.Fatalf("addq = %v", sum.Data)
	}
	if err := ConcatQInto(cat, []*QTensor{a, b}, 0.1, 8); err != nil {
		t.Fatal(err)
	}
	if len(cat.Data) != 4 || cat.Data[2] != 10 { // 5*0.2/0.1 = 10
		t.Fatalf("concatq = %v", cat.Data)
	}
	if err := AddQInto(sum, a, &QTensor{Data: []int8{1}, Dims: []int{1, 1, 1}, Scale: 1, Bits: 8}, 0.1, 8); err == nil {
		t.Fatal("addq size mismatch must fail")
	}
}

func TestCalibrator(t *testing.T) {
	c := NewCalibrator()
	x, _ := tensor.FromSlice([]float32{-3, 1}, 2)
	y, _ := tensor.FromSlice([]float32{2, -1}, 2)
	c.Observe("n1", x)
	c.Observe("n1", y)
	if c.MaxAbs("n1") != 3 {
		t.Fatalf("calibrated range = %f", c.MaxAbs("n1"))
	}
	if got := c.Scale("n1", 8); math.Abs(float64(got)-3.0/127) > 1e-7 {
		t.Fatalf("scale = %g", got)
	}
	if c.Scale("never", 8) != 1 {
		t.Fatal("unobserved key should default to scale 1")
	}
}

package quant

import (
	"math"
	"math/rand"
	"testing"
)

// requantRef is the epilogue's previous formula, kept here as the oracle:
// round the scaled accumulator half to even, convert to int32, clamp,
// then ReLU. ok is false where the rounded value does not fit an int32 —
// there the conversion was implementation-defined (amd64 gave MinInt32,
// so a large positive accumulator came out as −qmax) and the epilogue now
// saturates by sign, which is what sat reports.
func requantRef(a int32, ratio float64, qmax int32, relu bool) (v, sat int8, ok bool) {
	r := math.RoundToEven(float64(a) * ratio)
	sat = int8(qmax)
	if r < 0 {
		sat = int8(-qmax)
	}
	if relu && sat < 0 {
		sat = 0
	}
	if r < math.MinInt32 || r > math.MaxInt32 {
		return 0, sat, false
	}
	v = clampToInt8(int32(r), qmax)
	if relu && v < 0 {
		v = 0
	}
	return v, sat, true
}

// checkRequantize runs the epilogue over acc and compares every code with
// the oracle, or with sign saturation where the oracle is undefined.
func checkRequantize(t *testing.T, acc []int32, accScale, outScale float32, bits int, relu bool) {
	t.Helper()
	var dst QTensor
	if err := RequantizeInto(&dst, acc, accScale, outScale, bits, relu, len(acc)); err != nil {
		t.Fatalf("RequantizeInto(%g/%g INT%d): %v", accScale, outScale, bits, err)
	}
	ratio := float64(accScale) / float64(outScale)
	for i, a := range acc {
		want, sat, ok := requantRef(a, ratio, QMax(bits), relu)
		if !ok {
			want = sat
		}
		if dst.Data[i] != want {
			t.Fatalf("a=%d scales %g/%g INT%d relu=%v: got %d want %d (oracle defined: %v)",
				a, accScale, outScale, bits, relu, dst.Data[i], want, ok)
		}
	}
}

// TestRequantizeMatchesOldFormula sweeps the branch-free epilogue against
// the formula it replaced: every accumulator a trained layer produces and
// then some, 10⁵ random int32s and the int32 extremes, under ratios that
// hit exact ties (0.5, 0.25, 1.5), saturate (1.5, 1023.5), vanish (2⁻¹⁵)
// and 60 quotients of random float32 scales, at INT4 and INT8, with and
// without ReLU.
func TestRequantizeMatchesOldFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var acc []int32
	for i := 0; i < 100000; i++ {
		acc = append(acc, int32(rng.Uint32()))
	}
	acc = append(acc, math.MinInt32, math.MinInt32+1, math.MaxInt32-1, math.MaxInt32, 0)
	for a := int32(1); a <= 70000; a++ {
		acc = append(acc, a, -a)
	}
	scales := [][2]float32{{0.5, 1}, {0.25, 1}, {1, 1}, {1.5, 1}, {1, 512}, {1, 32768}, {1023.5, 1}}
	for i := 0; i < 60; i++ {
		scales = append(scales, [2]float32{rng.Float32() * 0.01, rng.Float32()*0.2 + 1e-4})
	}
	for i, s := range scales {
		for _, bits := range []int{4, 8} {
			for _, relu := range []bool{false, true} {
				part := acc
				if i >= 7 {
					// The random ratios take the random accumulators, the
					// extremes and the run's first ±3000.
					part = acc[:len(acc)-2*67000]
				}
				checkRequantize(t, part, s[0], s[1], bits, relu)
			}
		}
	}
}

// TestRequantizeSaturates is the regression row of the sign flip: with
// accScale/outScale > 1 the product of a large accumulator left the int32
// range, the float→int32 conversion returned MinInt32 on amd64, and the
// clamp turned the layer's largest activations into −qmax.
func TestRequantizeSaturates(t *testing.T) {
	var dst QTensor
	acc := []int32{math.MaxInt32, 1500000000, -1500000000, math.MinInt32}
	if err := RequantizeInto(&dst, acc, 1.5, 1, 8, false, len(acc)); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int8{127, 127, -127, -127} {
		if dst.Data[i] != want {
			t.Errorf("a=%d ratio 1.5: got %d, want saturation at %d", acc[i], dst.Data[i], want)
		}
	}
	if err := RequantizeInto(&dst, acc, 1.5, 1, 8, true, len(acc)); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int8{127, 127, 0, 0} {
		if dst.Data[i] != want {
			t.Errorf("a=%d ratio 1.5 under ReLU: got %d, want %d", acc[i], dst.Data[i], want)
		}
	}
	// Ratios the exact rounding cannot carry are refused, not mangled.
	for _, s := range [][2]float32{{1 << 20, 1}, {1, 1.0 / (1 << 20)}, {-(1 << 20), 1}, {float32(math.NaN()), 1}, {float32(math.Inf(1)), 1}} {
		if err := RequantizeInto(&dst, acc, s[0], s[1], 8, false, len(acc)); err == nil {
			t.Errorf("scales %g/%g: ratio outside (−2²⁰, 2²⁰) accepted", s[0], s[1])
		}
	}
	if err := RequantizeInto(&dst, acc, (1<<20)-1, 1, 8, false, len(acc)); err != nil {
		t.Errorf("ratio 2²⁰−1 refused: %v", err)
	}
}

// FuzzRequantize holds the epilogue to the old formula on arbitrary
// accumulators and scales: wherever RequantizeInto accepts the scales its
// code equals the oracle's, or the saturated code where the oracle's
// int32 conversion was undefined.
func FuzzRequantize(f *testing.F) {
	// The seed corpus proper is testdata/fuzz/FuzzRequantize.
	f.Add(int32(-12345), float32(0.003), float32(0.07), uint8(8), true)
	f.Fuzz(func(t *testing.T, a int32, accScale, outScale float32, bits uint8, relu bool) {
		b := MinBits + int(bits)%(MaxBits-MinBits+1)
		var dst QTensor
		if RequantizeInto(&dst, []int32{a}, accScale, outScale, b, relu, 1) != nil {
			if ratio := float64(accScale) / float64(outScale); outScale > 0 && math.Abs(ratio) < 1<<20 {
				t.Fatalf("scales %g/%g refused", accScale, outScale)
			}
			return
		}
		checkRequantize(t, []int32{a, -a, a + 1, a - 1}, accScale, outScale, b, relu)
	})
}

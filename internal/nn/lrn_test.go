package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fpgauv/internal/tensor"
)

func TestLRNKnownValue(t *testing.T) {
	// Single channel: window covers just that channel.
	l := &LRN{Size: 1, K: 1, Alpha: 1, Beta: 1}
	in, _ := tensor.FromSlice([]float32{2}, 1, 1, 1)
	out, err := l.Forward([]*tensor.Tensor{in})
	if err != nil {
		t.Fatal(err)
	}
	// y = 2 / (1 + 1/1 * 4)^1 = 0.4
	if math.Abs(float64(out.At(0, 0, 0))-0.4) > 1e-6 {
		t.Fatalf("lrn = %f, want 0.4", out.At(0, 0, 0))
	}
}

func TestLRNPreservesShapeAndSign(t *testing.T) {
	l := NewLRN()
	in := tensor.New(8, 4, 4)
	in.FillRandn(rand.New(rand.NewSource(3)), 2)
	out, err := l.Forward([]*tensor.Tensor{in})
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != in.Size() {
		t.Fatal("shape")
	}
	for i, v := range out.Data() {
		x := in.Data()[i]
		if (x > 0 && v <= 0) || (x < 0 && v >= 0) {
			t.Fatalf("lrn must preserve sign: x=%f y=%f", x, v)
		}
		if math.Abs(float64(v)) > math.Abs(float64(x)) {
			t.Fatalf("lrn must not amplify with K>=1: x=%f y=%f", x, v)
		}
	}
	if l.ParamCount() != 0 || l.MACs(nil) != 0 {
		t.Fatal("lrn accounting")
	}
}

func TestLRNShapeValidation(t *testing.T) {
	l := &LRN{Size: 0}
	if _, err := l.OutShape([]Shape{{C: 4, H: 2, W: 2}}); err == nil {
		t.Fatal("zero window must fail")
	}
	if _, err := NewLRN().OutShape(nil); err == nil {
		t.Fatal("arity check")
	}
}

// Property: LRN output magnitude is bounded by input/K^Beta and the
// normalization is monotone — larger neighborhoods shrink values more.
func TestLRNBoundedProperty(t *testing.T) {
	l := NewLRN()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := tensor.New(6, 2, 2)
		in.FillRandn(rng, 3)
		out, err := l.Forward([]*tensor.Tensor{in})
		if err != nil {
			return false
		}
		bound := 1 / math.Pow(l.K, l.Beta)
		for i, v := range out.Data() {
			if math.Abs(float64(v)) > math.Abs(float64(in.Data()[i]))*bound+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestLRNZeroSkipBitExact holds the zero-centre shortcut to the
// unskipped formula bit for bit: +0 and -0 centres (the sign must
// survive), negatives, a pixel whose whole window is zero, and a zero
// centre between large neighbours.
func TestLRNZeroSkipBitExact(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	const c, hw = 7, 4
	// Channel-major, 4 pixels: p0 mixed zeros, p1 all zero, p2 a zero
	// between large neighbours, p3 dense.
	data := []float32{
		0, 0, 1e6, 0.5,
		negZero, 0, 0, -1.5,
		-3, negZero, -1e6, 2,
		0, 0, 7, -0.25,
		2.5, negZero, negZero, 4,
		negZero, 0, 0, -8,
		-1, 0, 3, 1,
	}
	in, err := tensor.FromSlice(data, c, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []*LRN{NewLRN(), {Size: 3, K: 1, Alpha: 2, Beta: 0.5}, {Size: 1, K: 0.5, Alpha: 0, Beta: 2}} {
		out, err := l.Forward([]*tensor.Tensor{in})
		if err != nil {
			t.Fatal(err)
		}
		half := l.Size / 2
		for p := 0; p < hw; p++ {
			for ch := 0; ch < c; ch++ {
				var sum float64
				for cc := max(ch-half, 0); cc <= min(ch+half, c-1); cc++ {
					v := float64(data[cc*hw+p])
					sum += v * v
				}
				want := float32(float64(data[ch*hw+p]) / math.Pow(l.K+l.Alpha/float64(l.Size)*sum, l.Beta))
				got := out.Data()[ch*hw+p]
				if math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("lrn %+v ch %d px %d: got %v (%#x), unskipped formula %v (%#x)",
						*l, ch, p, got, math.Float32bits(got), want, math.Float32bits(want))
				}
			}
		}
	}
}

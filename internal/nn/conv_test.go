package nn

import (
	"math"
	"math/rand"
	"testing"

	"fpgauv/internal/tensor"
)

// convDirect is the direct convolution formula — the seven-deep loop
// Conv2D.Forward ran before it walked output rows — kept as the oracle:
// each output starts at the bias and adds its in-bounds taps in
// (ic, ky, kx) order.
func convDirect(c *Conv2D, x *tensor.Tensor) (*tensor.Tensor, error) {
	s, err := shapeOf(x)
	if err != nil {
		return nil, err
	}
	os, err := c.OutShape([]Shape{s})
	if err != nil {
		return nil, err
	}
	out := tensor.New(os.C, os.H, os.W)
	xd, wd, od := x.Data(), c.Weights.Data(), out.Data()
	k, st, pad := c.Kernel, c.Stride, c.Pad
	for oc := 0; oc < os.C; oc++ {
		bias := c.Bias[oc]
		wBase := oc * c.InC * k * k
		for oy := 0; oy < os.H; oy++ {
			for ox := 0; ox < os.W; ox++ {
				acc := bias
				iy0 := oy*st - pad
				ix0 := ox*st - pad
				for ic := 0; ic < c.InC; ic++ {
					xBase := ic * s.H * s.W
					wcBase := wBase + ic*k*k
					for ky := 0; ky < k; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= s.H {
							continue
						}
						rowX := xBase + iy*s.W
						rowW := wcBase + ky*k
						for kx := 0; kx < k; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= s.W {
								continue
							}
							acc += xd[rowX+ix] * wd[rowW+kx]
						}
					}
				}
				od[(oc*os.H+oy)*os.W+ox] = acc
			}
		}
	}
	return out, nil
}

// sameBits fails unless got and want are bit-identical tensors.
func sameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	g, w := got.Data(), want.Data()
	if len(g) != len(w) {
		t.Fatalf("%s: %d outputs, oracle %d", what, len(g), len(w))
	}
	for i := range w {
		if math.Float32bits(g[i]) != math.Float32bits(w[i]) {
			t.Fatalf("%s: out[%d] = %v (%#08x), oracle %v (%#08x)",
				what, i, g[i], math.Float32bits(g[i]), w[i], math.Float32bits(w[i]))
		}
	}
}

// TestConvRowWalkMatchesDirect holds the row walk to the direct formula
// bit for bit over kernel 1–7 × stride 1–4 (stride above kernel
// included) × pad 0…k (pad at and above kernel included), on 1×1,
// square and non-square inputs, with one output channel's bias -0 (pad
// ≥ kernel leaves border outputs no tap reaches, which must stay -0).
func TestConvRowWalkMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	inputs := [][2]int{{1, 1}, {1, 7}, {7, 1}, {5, 9}, {9, 5}, {8, 8}, {13, 11}}
	checked := 0
	for k := 1; k <= 7; k++ {
		for st := 1; st <= 4; st++ {
			for pad := 0; pad <= k; pad++ {
				c := NewConv2D(rng, 2, 3, k, st, pad)
				c.Bias = []float32{float32(math.Copysign(0, -1)), 0.25, -1.5}
				for _, hw := range inputs {
					x := tensor.New(2, hw[0], hw[1])
					x.FillRandn(rng, 1)
					want, werr := convDirect(c, x)
					got, gerr := c.Forward([]*tensor.Tensor{x})
					if (werr == nil) != (gerr == nil) {
						t.Fatalf("k%d s%d p%d %v: error %v, oracle %v", k, st, pad, hw, gerr, werr)
					}
					if werr != nil {
						continue
					}
					sameBits(t, "conv", got, want)
					checked++
				}
			}
		}
	}
	if checked < 500 {
		t.Fatalf("only %d configurations produced an output", checked)
	}
}

// TestConvRejectsNonPositiveStride is the regression for the integer
// divide by zero a Stride: 0 conv raised from Graph.Add: OutShape (and
// so Forward) must return an error, as Pool2D's does.
func TestConvRejectsNonPositiveStride(t *testing.T) {
	in := []Shape{{C: 1, H: 4, W: 4}}
	for _, c := range []*Conv2D{
		{InC: 1, OutC: 1, Kernel: 3, Stride: 0, Pad: 1},
		{InC: 1, OutC: 1, Kernel: 3, Stride: -1, Pad: 1},
		{InC: 1, OutC: 1, Kernel: 0, Stride: 1},
	} {
		if _, err := c.OutShape(in); err == nil {
			t.Fatalf("kernel %d stride %d: OutShape accepted", c.Kernel, c.Stride)
		}
		if got := c.MACs(in); got != 0 {
			t.Fatalf("kernel %d stride %d: MACs %d, want 0", c.Kernel, c.Stride, got)
		}
		x := tensor.New(1, 4, 4)
		if _, err := c.Forward([]*tensor.Tensor{x}); err == nil {
			t.Fatalf("kernel %d stride %d: Forward accepted", c.Kernel, c.Stride)
		}
	}
}

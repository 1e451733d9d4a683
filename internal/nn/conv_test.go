package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fpgauv/internal/tensor"
)

// convDirect is the direct convolution formula, kept as the oracle:
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

// TestConvMatchesDirect holds Forward to the direct formula bit for
// bit over kernel 1–7 × stride 1–4 (stride above kernel included) ×
// pad 0…k (pad at and above kernel included) × 1–9 output channels
// (full and ragged four-channel blocks), on 1×1, square and non-square
// inputs, with the first and last output channel's bias -0 (pad ≥
// kernel leaves border outputs no tap reaches, which must stay -0).
func TestConvMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	inputs := [][2]int{{1, 1}, {1, 7}, {7, 1}, {5, 9}, {9, 5}, {8, 8}, {13, 11}}
	negZero := float32(math.Copysign(0, -1))
	checked := 0
	for k := 1; k <= 7; k++ {
		for st := 1; st <= 4; st++ {
			for pad := 0; pad <= k; pad++ {
				for outC := 1; outC <= 9; outC++ {
					c := NewConv2D(rng, 2, outC, k, st, pad)
					for i := range c.Bias {
						c.Bias[i] = float32(i%3) - 0.75
					}
					c.Bias[0], c.Bias[outC-1] = negZero, negZero
					for _, hw := range inputs {
						x := tensor.New(2, hw[0], hw[1])
						x.FillRandn(rng, 1)
						want, werr := convDirect(c, x)
						got, gerr := c.Forward([]*tensor.Tensor{x})
						if (werr == nil) != (gerr == nil) {
							t.Fatalf("k%d s%d p%d o%d %v: error %v, oracle %v", k, st, pad, outC, hw, gerr, werr)
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
	}
	if checked < 4500 {
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

// FuzzConvForward holds Forward to the direct formula bit for bit on
// fuzzed geometry — 1–6 input and 1–9 output channels (full and ragged
// four-channel blocks), kernel 1–7, stride 1–4, pad 0…k+1, a 1–12 ×
// 1–12 input — and on raw float32 bit patterns for the input, weights
// and bias, so -0, subnormals and sums that overflow occur. A pattern
// with an all-ones exponent is made finite by clearing its top exponent
// bit; every NaN an overflow then makes is the default one, so the
// comparison stays bitwise.
func FuzzConvForward(f *testing.F) {
	// The seed corpus proper is testdata/fuzz/FuzzConvForward.
	f.Add(uint8(2), uint8(5), uint8(2), uint8(0), uint8(1), uint8(7), uint8(6), []byte("\x00\x00\x80\xbf\x01\x00\x00\x00\x00\x00\x00\x80"))
	f.Fuzz(func(t *testing.T, inRaw, outRaw, kRaw, stRaw, padRaw, hRaw, wRaw uint8, raw []byte) {
		inC, outC := 1+int(inRaw)%6, 1+int(outRaw)%9
		k, st := 1+int(kRaw)%7, 1+int(stRaw)%4
		pad := int(padRaw) % (k + 2)
		h, w := 1+int(hRaw)%12, 1+int(wRaw)%12
		if len(raw) == 0 {
			raw = []byte{0}
		}
		next := 0
		value := func() float32 {
			var b uint32
			for i := 0; i < 4; i++ {
				b |= uint32(raw[next%len(raw)]) << (8 * i)
				next++
			}
			if b&0x7f800000 == 0x7f800000 {
				b &^= 0x40000000
			}
			return math.Float32frombits(b)
		}
		c := &Conv2D{
			InC: inC, OutC: outC, Kernel: k, Stride: st, Pad: pad,
			Weights: tensor.New(outC, inC, k, k),
			Bias:    make([]float32, outC),
		}
		wd := c.Weights.Data()
		for i := range wd {
			wd[i] = value()
		}
		for i := range c.Bias {
			c.Bias[i] = value()
		}
		x := tensor.New(inC, h, w)
		xd := x.Data()
		for i := range xd {
			xd[i] = value()
		}
		want, werr := convDirect(c, x)
		got, gerr := c.Forward([]*tensor.Tensor{x})
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("in%d out%d k%d s%d p%d %dx%d: error %v, oracle %v", inC, outC, k, st, pad, h, w, gerr, werr)
		}
		if werr == nil {
			sameBits(t, fmt.Sprintf("in%d out%d k%d s%d p%d %dx%d", inC, outC, k, st, pad, h, w), got, want)
		}
	})
}

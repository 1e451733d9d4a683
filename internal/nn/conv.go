package nn

import (
	"fmt"
	"math"
	"math/rand"

	"fpgauv/internal/tensor"
)

// Conv2D is a 2-D convolution with square kernels, OIHW weights and
// per-output-channel bias.
type Conv2D struct {
	InC, OutC int
	Kernel    int
	Stride    int
	Pad       int
	// Weights has dims [OutC, InC, Kernel, Kernel]; Bias has len OutC.
	Weights *tensor.Tensor
	Bias    []float32
}

var _ Op = (*Conv2D)(nil)

// NewConv2D allocates a convolution with He-initialized weights drawn
// from rng.
func NewConv2D(rng *rand.Rand, inC, outC, kernel, stride, pad int) *Conv2D {
	w := tensor.New(outC, inC, kernel, kernel)
	std := math.Sqrt(2.0 / float64(inC*kernel*kernel))
	w.FillRandn(rng, std)
	return &Conv2D{
		InC: inC, OutC: outC, Kernel: kernel, Stride: stride, Pad: pad,
		Weights: w,
		Bias:    make([]float32, outC),
	}
}

// Name implements Op.
func (c *Conv2D) Name() string { return "conv" }

// OutShape implements Op.
func (c *Conv2D) OutShape(in []Shape) (Shape, error) {
	s, err := one("conv", in)
	if err != nil {
		return Shape{}, err
	}
	if s.C != c.InC {
		return Shape{}, fmt.Errorf("nn: conv input channels %d != %d", s.C, c.InC)
	}
	if c.Kernel <= 0 || c.Stride <= 0 {
		return Shape{}, fmt.Errorf("nn: conv kernel/stride must be positive")
	}
	oh := (s.H+2*c.Pad-c.Kernel)/c.Stride + 1
	ow := (s.W+2*c.Pad-c.Kernel)/c.Stride + 1
	if oh <= 0 || ow <= 0 {
		return Shape{}, fmt.Errorf("nn: conv output collapses for input %v kernel %d stride %d", s, c.Kernel, c.Stride)
	}
	return Shape{C: c.OutC, H: oh, W: ow}, nil
}

// ParamCount implements Op.
func (c *Conv2D) ParamCount() int64 {
	return int64(c.OutC*c.InC*c.Kernel*c.Kernel) + int64(c.OutC)
}

// MACs implements Op.
func (c *Conv2D) MACs(in []Shape) int64 {
	out, err := c.OutShape(in)
	if err != nil {
		return 0
	}
	return int64(out.H*out.W) * int64(c.OutC) * int64(c.InC*c.Kernel*c.Kernel)
}

// Forward implements Op (float32 reference path). It is a register
// tile: four output channels at a time, each output held in a register
// from its bias through every in-bounds tap in (ic, ky, kx) order,
// one acc += x*w per tap, and stored once. That is the direct formula's
// order and expression, so the result is bit-identical to it
// (DESIGN.md, "The float reference path"). Interior outputs, whose
// k×k taps all lie in bounds, walk a tap-offset table two adjacent
// pixels at a time; every other output (and a row's odd interior one)
// walks the (ky, kx) ranges clipped to the input, and one no tap
// reaches keeps its bias.
func (c *Conv2D) Forward(in []*tensor.Tensor) (*tensor.Tensor, error) {
	x, err := one("conv", in)
	if err != nil {
		return nil, err
	}
	s, err := shapeOf(x)
	if err != nil {
		return nil, err
	}
	os, err := c.OutShape([]Shape{s})
	if err != nil {
		return nil, err
	}
	out := tensor.New(os.C, os.H, os.W)
	k, st, pad := c.Kernel, c.Stride, c.Pad
	reduce := c.InC * k * k
	t := convTile{
		x: x.Data(), h: s.H, w: s.W, k: k, st: st, pad: pad, inC: c.InC,
		taps: make([]convTap, 0, reduce),
	}
	for ic := 0; ic < c.InC; ic++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				t.taps = append(t.taps, convTap{off: ic*s.H*s.W + ky*s.W + kx})
			}
		}
	}
	oyLo, oyHi := interior(st, pad, k, s.H, os.H)
	oxLo, oxHi := interior(st, pad, k, s.W, os.W)
	wd, od, plane := c.Weights.Data(), out.Data(), os.H*os.W
	for ob := 0; ob < os.C; ob += 4 {
		// The block's weights, tap-major; a ragged last block repeats
		// its last channel in the spare lanes and stores only the real
		// ones.
		lanes := min(4, os.C-ob)
		var bias [4]float32
		for j := range bias {
			oc := ob + min(j, lanes-1)
			bias[j] = c.Bias[oc]
			for p, w := range wd[oc*reduce : (oc+1)*reduce] {
				t.taps[p].w[j] = w
			}
		}
		for oy := 0; oy < os.H; oy++ {
			lo, hi := 0, 0
			if oy >= oyLo && oy < oyHi {
				lo, hi = oxLo, oxHi
			}
			o := od[ob*plane+oy*os.W:]
			for ox := 0; ox < lo; ox++ {
				a0, a1, a2, a3 := t.clipped(oy, ox, bias)
				put(o[ox:], plane, lanes, a0, a1, a2, a3)
			}
			ox := lo
			for base := (oy*st-pad)*s.W + lo*st - pad; ox+1 < hi; ox, base = ox+2, base+2*st {
				a0, a1, a2, a3, b0, b1, b2, b3 := t.pair(base, bias)
				put(o[ox:], plane, lanes, a0, a1, a2, a3)
				put(o[ox+1:], plane, lanes, b0, b1, b2, b3)
			}
			for ; ox < os.W; ox++ {
				a0, a1, a2, a3 := t.clipped(oy, ox, bias)
				put(o[ox:], plane, lanes, a0, a1, a2, a3)
			}
		}
	}
	return out, nil
}

// convTile is one Forward call's input and the current block's weight
// panel, one convTap per tap in (ic, ky, kx) order.
type convTile struct {
	x                     []float32
	h, w, k, st, pad, inC int
	taps                  []convTap
}

// convTap is one tap's offset from an interior window's first input and
// its weight for the block's four channels.
type convTap struct {
	off int
	w   [4]float32
}

// interior returns the outputs [lo, hi) of an n-wide input axis whose
// k taps at stride st and padding pad all lie in bounds, clipped to the
// outN outputs (lo == hi when there are none).
func interior(st, pad, k, n, outN int) (lo, hi int) {
	lo = (pad + st - 1) / st
	if e := n - k + pad; e >= 0 {
		hi = min(e/st+1, outN)
	}
	return min(lo, hi), hi
}

// pair computes the interior outputs whose windows start at x[base] and
// x[base+st], one accumulator per (pixel, lane).
func (t *convTile) pair(base int, bias [4]float32) (a0, a1, a2, a3, b0, b1, b2, b3 float32) {
	a0, a1, a2, a3 = bias[0], bias[1], bias[2], bias[3]
	b0, b1, b2, b3 = a0, a1, a2, a3
	x0, x1 := t.x[base:], t.x[base+t.st:]
	for p := range t.taps {
		tp := &t.taps[p]
		w := &tp.w
		u, v := x0[tp.off], x1[tp.off]
		a0 += u * w[0]
		a1 += u * w[1]
		a2 += u * w[2]
		a3 += u * w[3]
		b0 += v * w[0]
		b1 += v * w[1]
		b2 += v * w[2]
		b3 += v * w[3]
	}
	return
}

// clipped computes output (oy, ox) over the taps whose input lies in
// bounds, in (ic, ky, kx) order.
func (t *convTile) clipped(oy, ox int, bias [4]float32) (a0, a1, a2, a3 float32) {
	a0, a1, a2, a3 = bias[0], bias[1], bias[2], bias[3]
	iy, ix := oy*t.st-t.pad, ox*t.st-t.pad
	ky0, ky1 := max(0, -iy), min(t.k, t.h-iy)
	kx0, kx1 := max(0, -ix), min(t.k, t.w-ix)
	if ky0 >= ky1 || kx0 >= kx1 {
		return
	}
	for ic := 0; ic < t.inC; ic++ {
		for ky := ky0; ky < ky1; ky++ {
			r := ic*t.h*t.w + (iy+ky)*t.w + ix
			p := (ic*t.k + ky) * t.k
			ts := t.taps[p+kx0 : p+kx1]
			for i, u := range t.x[r+kx0 : r+kx1] {
				w := &ts[i].w
				a0 += u * w[0]
				a1 += u * w[1]
				a2 += u * w[2]
				a3 += u * w[3]
			}
		}
	}
	return
}

// put stores one output pixel's lanes, a plane apart, keeping only the
// block's real channels.
func put(o []float32, plane, lanes int, a0, a1, a2, a3 float32) {
	o[0] = a0
	if lanes > 1 {
		o[plane] = a1
	}
	if lanes > 2 {
		o[2*plane] = a2
	}
	if lanes > 3 {
		o[3*plane] = a3
	}
}

// Dense is a fully-connected layer. Input feature maps are flattened.
type Dense struct {
	In, Out int
	// Weights has dims [Out, In]; Bias has len Out.
	Weights *tensor.Tensor
	Bias    []float32
}

var _ Op = (*Dense)(nil)

// NewDense allocates a fully-connected layer with He-initialized weights.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	w := tensor.New(out, in)
	w.FillRandn(rng, math.Sqrt(2.0/float64(in)))
	return &Dense{In: in, Out: out, Weights: w, Bias: make([]float32, out)}
}

// Name implements Op.
func (d *Dense) Name() string { return "fc" }

// OutShape implements Op.
func (d *Dense) OutShape(in []Shape) (Shape, error) {
	s, err := one("fc", in)
	if err != nil {
		return Shape{}, err
	}
	if s.Elems() != d.In {
		return Shape{}, fmt.Errorf("nn: fc input %v (%d elems) != %d", s, s.Elems(), d.In)
	}
	return Vector(d.Out), nil
}

// ParamCount implements Op.
func (d *Dense) ParamCount() int64 { return int64(d.In*d.Out) + int64(d.Out) }

// MACs implements Op.
func (d *Dense) MACs(in []Shape) int64 { return int64(d.In) * int64(d.Out) }

// Forward implements Op.
func (d *Dense) Forward(in []*tensor.Tensor) (*tensor.Tensor, error) {
	x, err := one("fc", in)
	if err != nil {
		return nil, err
	}
	if x.Size() != d.In {
		return nil, fmt.Errorf("nn: fc input size %d != %d", x.Size(), d.In)
	}
	out := tensor.New(d.Out)
	xd, wd, od := x.Data(), d.Weights.Data(), out.Data()
	for o := 0; o < d.Out; o++ {
		acc := d.Bias[o]
		row := wd[o*d.In : (o+1)*d.In]
		for i, v := range xd {
			acc += v * row[i]
		}
		od[o] = acc
	}
	return out, nil
}

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

// Forward implements Op (float32 reference path). It walks output
// rows: each plane starts at the bias, then every tap (ic, ky, kx) adds
// x*w along the run of outputs it reaches in bounds. Every output thus
// sums bias then its taps in (ic, ky, kx) order with one acc += x*w per
// tap, as the direct formula does, so the result is bit-identical to it
// (DESIGN.md, "The float reference path").
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
	xd, wd, od := x.Data(), c.Weights.Data(), out.Data()
	k, st, pad := c.Kernel, c.Stride, c.Pad
	for oc := 0; oc < os.C; oc++ {
		plane := od[oc*os.H*os.W : (oc+1)*os.H*os.W]
		for i := range plane {
			plane[i] = c.Bias[oc]
		}
		for ic := 0; ic < c.InC; ic++ {
			xc := xd[ic*s.H*s.W : (ic+1)*s.H*s.W]
			taps := wd[(oc*c.InC+ic)*k*k : (oc*c.InC+ic+1)*k*k]
			for ky := 0; ky < k; ky++ {
				oy0, oy1 := reach(ky, st, pad, s.H, os.H)
				for kx := 0; kx < k; kx++ {
					ox0, ox1 := reach(kx, st, pad, s.W, os.W)
					n := ox1 - ox0
					if n == 0 {
						continue
					}
					w := taps[ky*k+kx]
					ob := oy0*os.W + ox0
					xb := (oy0*st-pad+ky)*s.W + ox0*st - pad + kx
					for oy := oy0; oy < oy1; oy++ {
						o := plane[ob : ob+n]
						if st == 1 {
							for i, v := range xc[xb : xb+n] {
								o[i] += v * w
							}
						} else {
							xs := xc[xb : xb+(n-1)*st+1]
							for i := range o {
								o[i] += xs[i*st] * w
							}
						}
						ob += os.W
						xb += st * s.W
					}
				}
			}
		}
	}
	return out, nil
}

// reach returns the outputs [lo, hi) of an n-wide input axis that tap t
// reaches at stride st and padding pad: those whose input coordinate
// o*st - pad + t lies in [0, n), clipped to the outN outputs.
func reach(t, st, pad, n, outN int) (lo, hi int) {
	if d := pad - t; d > 0 {
		lo = (d + st - 1) / st
	}
	if e := n - 1 + pad - t; e >= 0 {
		hi = e/st + 1
	}
	hi = min(hi, outN)
	return min(lo, hi), hi
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

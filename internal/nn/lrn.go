package nn

import (
	"fmt"
	"math"

	"fpgauv/internal/tensor"
)

// LRN is AlexNet-style local response normalization across channels:
//
//	y[c] = x[c] / (K + Alpha/Size * Σ_{c' in window} x[c']²)^Beta
//
// The DPU has no native LRN unit; like softmax it executes on the host
// (DNNDK schedules it on the ARM cores), so it contributes activation
// traffic but no MACs to the GOPs accounting.
type LRN struct {
	// Size is the cross-channel window (AlexNet: 5).
	Size int
	// K, Alpha, Beta are the normalization constants
	// (AlexNet: 2, 1e-4, 0.75).
	K     float64
	Alpha float64
	Beta  float64
}

var _ Op = (*LRN)(nil)

// NewLRN returns the AlexNet-default local response normalization.
func NewLRN() *LRN {
	return &LRN{Size: 5, K: 2, Alpha: 1e-4, Beta: 0.75}
}

// Name implements Op.
func (l *LRN) Name() string { return "lrn" }

// OutShape implements Op.
func (l *LRN) OutShape(in []Shape) (Shape, error) {
	s, err := one("lrn", in)
	if err != nil {
		return Shape{}, err
	}
	if l.Size <= 0 {
		return Shape{}, fmt.Errorf("nn: lrn window must be positive")
	}
	return s, nil
}

// ParamCount implements Op.
func (l *LRN) ParamCount() int64 { return 0 }

// MACs implements Op.
func (l *LRN) MACs(in []Shape) int64 { return 0 }

// Forward implements Op.
func (l *LRN) Forward(in []*tensor.Tensor) (*tensor.Tensor, error) {
	x, err := one("lrn", in)
	if err != nil {
		return nil, err
	}
	s, err := shapeOf(x)
	if err != nil {
		return nil, err
	}
	out := tensor.New(s.C, s.H, s.W)
	xd, od := x.Data(), out.Data()
	hw := s.H * s.W
	half := l.Size / 2
	// A zero centre (about half of a post-ReLU map) normalizes to
	// 0/denom = itself, sign included, so the window sum and the pow can
	// be skipped — provided denom is positive and not NaN whatever the
	// window holds: with these constants it is at least K^Beta > 0.
	// (Only a NaN neighbour would have made the unskipped quotient differ.)
	skipZero := l.K > 0 && l.Alpha >= 0 && l.Beta >= 0 && math.Pow(l.K, l.Beta) > 0
	for p := 0; p < hw; p++ {
		for c := 0; c < s.C; c++ {
			if skipZero && xd[c*hw+p] == 0 {
				od[c*hw+p] = xd[c*hw+p]
				continue
			}
			var sum float64
			lo := c - half
			hi := c + half
			if lo < 0 {
				lo = 0
			}
			if hi >= s.C {
				hi = s.C - 1
			}
			for cc := lo; cc <= hi; cc++ {
				v := float64(xd[cc*hw+p])
				sum += v * v
			}
			denom := math.Pow(l.K+l.Alpha/float64(l.Size)*sum, l.Beta)
			od[c*hw+p] = float32(float64(xd[c*hw+p]) / denom)
		}
	}
	return out, nil
}

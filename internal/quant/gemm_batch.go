package quant

import "fmt"

// This file is the GEMM lowering of the int8 compute path: a convolution
// over N images is one multi-RHS GEMM whose columns are read in place
// from the images' zero-padded frames — no patch matrix is written —
// and a fully-connected layer is a GEMM over the batch (a lone image is
// the batch of one). Image b's accumulator block is
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
// every image is copied once into its zero-padded frame (image b's at
// col[b*InC*Hp*Wp:]) and a single tiled multi-RHS GEMM, its macro-tiles
// split across the worker pool (gemm_tiled.go), computes the whole batch
// straight from the frames. Image b's accumulators are
// (*acc)[b*sh.AccLen():(b+1)*sh.AccLen()] in the naive kernel's
// OutC×Pixels layout. Both buffers are grown in place and reused across
// calls. Bit-exact with Conv2DInt8 per image at every worker count.
func Conv2DInt8GemmBatch(xs []*QTensor, w *QTensor, biasQ []int32, stride, pad int, col *[]int8, acc *[]int32) (ConvShape, error) {
	return ConvGemmBatch(xs, w, nil, biasQ, stride, pad, col, acc, true)
}

// Conv2DInt8GemmBatchSparse is Conv2DInt8GemmBatch over block-sparse
// packed weights: the same stacked GEMM, skipping fully-zero weight
// blocks. Bit-exact with Conv2DInt8GemmBatch and Conv2DInt8 on the
// unpacked weights.
func Conv2DInt8GemmBatchSparse(xs []*QTensor, sw *SparseWeights, biasQ []int32, stride, pad int, col *[]int8, acc *[]int32) (ConvShape, error) {
	return ConvGemmBatch(xs, nil, sw, biasQ, stride, pad, col, acc, true)
}

// operand resolves a lowering's weight arguments — the packed image when
// sw is set, the dense tensor w otherwise — into the logical-shape header
// and the block kernel's operand.
func operand(w *QTensor, sw *SparseWeights) (QTensor, weights) {
	if sw != nil {
		return sw.header(), weights{sparse: sw}
	}
	return *w, weights{dense: w.Data}
}

// ConvGemmBatch is the conv lowering behind the two named forms above:
// over sw's packed image when sw is set, over the dense OIHW tensor w
// otherwise. fan lets the stacked GEMM split its macro-tiles across the
// worker pool; a caller that is already one of a pass's parallel lanes
// passes false and keeps the GEMM on its own goroutine — same bits
// either way.
func ConvGemmBatch(xs []*QTensor, w *QTensor, sw *SparseWeights, biasQ []int32, stride, pad int, col *[]int8, acc *[]int32, fan bool) (ConvShape, error) {
	hdr, wt := operand(w, sw)
	if err := validateBatch(xs); err != nil {
		return ConvShape{}, err
	}
	sh, err := ConvShapeOf(xs[0], &hdr, biasQ, stride, pad)
	if err != nil {
		return sh, err
	}
	if sw != nil && (sw.M != sh.OutC || sw.K != sh.Cols()) {
		return sh, fmt.Errorf("quant: sparse conv weights %dx%d do not match geometry %dx%d", sw.M, sw.K, sh.OutC, sh.Cols())
	}
	n := len(xs)
	hp, wp := sh.InH+2*pad, sh.InW+2*pad
	size := sh.InC * hp * wp
	*col = growInt8(*col, n*size)
	*acc = growInt32(*acc, n*sh.AccLen())
	for b, x := range xs {
		padFrame((*col)[b*size:(b+1)*size], x.Data, sh)
	}
	frames := rhs{
		frame: *col, kw: sh.K, wp: wp, plane: hp * wp, stride: stride, outW: sh.OutW,
		span: (sh.InC-1)*hp*wp + (sh.K-1)*wp + sh.K,
	}
	gemmInt8Tiled(*acc, wt, frames, sh.OutC, sh.Cols(), n, sh.Pixels(), biasQ, fan)
	return sh, nil
}

// padFrame copies the CHW image x into frame with sh.Pad zeros on every
// side of each channel. Every receptive field then lies inside the
// frame, so the kernel needs no border case: a tap in the padding reads
// a zero, which is what the naive kernel adds when it skips that tap.
func padFrame(frame, x []int8, sh ConvShape) {
	if sh.Pad == 0 {
		copy(frame, x)
		return
	}
	clear(frame)
	wp := sh.InW + 2*sh.Pad
	at := sh.Pad*wp + sh.Pad
	for ic := 0; ic < sh.InC; ic++ {
		for y := 0; y < sh.InH; y++ {
			copy(frame[at:at+sh.InW], x[:sh.InW])
			at, x = at+wp, x[sh.InW:]
		}
		at += 2 * sh.Pad * wp
	}
}

// DenseInt8GemmBatch is the GEMM lowering of DenseInt8 over a batch:
// the images are the columns of the block kernel (gemm.go), so each
// weight row group is packed once and streams every image pair, and
// tileM-row output bands split across the worker pool. Image b's
// accumulators are (*acc)[b*out:(b+1)*out]; the buffer is grown in
// place and reused across calls. Bit-exact with DenseInt8 per image at
// every worker count.
func DenseInt8GemmBatch(xs []*QTensor, w *QTensor, biasQ []int32, acc *[]int32) (int, error) {
	return DenseGemmBatch(xs, w, nil, biasQ, acc, true)
}

// DenseInt8GemmBatchSparse is DenseInt8GemmBatch over block-sparse
// packed weights.
func DenseInt8GemmBatchSparse(xs []*QTensor, sw *SparseWeights, biasQ []int32, acc *[]int32) (int, error) {
	return DenseGemmBatch(xs, nil, sw, biasQ, acc, true)
}

// DenseGemmBatch is the FC lowering behind the two named forms above,
// with ConvGemmBatch's operand and fan rules.
func DenseGemmBatch(xs []*QTensor, w *QTensor, sw *SparseWeights, biasQ []int32, acc *[]int32, fan bool) (int, error) {
	hdr, wt := operand(w, sw)
	if len(hdr.Dims) != 2 {
		return 0, fmt.Errorf("quant: fc weights must be 2-D, got %v", hdr.Dims)
	}
	out, in := hdr.Dims[0], hdr.Dims[1]
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
	denseInt8Tiled(*acc, wt, biasQ, xs, in, out, fan)
	return out, nil
}

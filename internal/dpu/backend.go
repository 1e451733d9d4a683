package dpu

import (
	"fmt"

	"fpgauv/internal/quant"
)

// Deployable compute backend names. Auto is resolved at compile
// (dnndk.Quantize) time into dense or sparse per kernel. (The naive
// oracle SetReferenceKernels forces is not deployable and has no name.)
const (
	BackendAuto   = "auto"
	BackendDense  = "dense"
	BackendSparse = "sparse"
)

// ValidBackend reports whether name is a deployable backend selector
// ("" means auto).
func ValidBackend(name string) bool {
	switch name {
	case "", BackendAuto, BackendDense, BackendSparse:
		return true
	}
	return false
}

// ComputeBackend is one weight-layer execution strategy: how a compiled
// conv/FC node runs against the quant engine. All backends share the
// executor's fault injection and requantize epilogue and are bit-exact
// with each other on the same weight image at every worker count —
// only where the int8 MACs come from differs:
//
//   - gemm: the in-place int8 GEMM over the kernel's compiled operand —
//     the dense weight tensor, or (sparse backend) the block-sparse
//     packed image, skipping fully-zero SparseBlockRows×1 weight blocks
//   - naive: the direct conv/FC reference kernels (the oracle)
//
// ConvBatch/DenseBatch run a lane's stacked sub-batch (a lone image is
// the batch of one) with image b's accumulators at block b of *acc, in
// the naive kernels' output layout. fan says whether the GEMM may split
// its macro-tiles across the tile pool; the executor clears it when the
// pass's lanes already cover the pool (batch.go).
type ComputeBackend interface {
	ConvBatch(kn *KernelNode, xs []*quant.QTensor, stride, pad int, col *[]int8, acc *[]int32, fan bool) (quant.ConvShape, error)
	DenseBatch(kn *KernelNode, xs []*quant.QTensor, acc *[]int32, fan bool) (int, error)
}

// backendFor resolves the backend a kernel executes on: the naive
// oracle when reference kernels are forced, otherwise the GEMM engine
// (dense or sparse by whether the kernel compiled a packed image).
func (d *DPU) backendFor() ComputeBackend {
	if d.refKernels {
		return naiveBackend{}
	}
	return gemmBackend{}
}

// bramImage returns the node's BRAM-resident weight image — the tensor
// BRAM fault injection corrupts and the ECC scrubber protects. On the
// sparse backend that is the packed image (smaller: fewer protected
// words at the same fault rate; the dense WQ is host-side DDR staging).
// When reference kernels are forced the naive oracle reads WQ, so
// faults target it to stay visible to the compute.
func (d *DPU) bramImage(kn *KernelNode) *quant.QTensor {
	if kn.SW != nil && !d.refKernels {
		return kn.SW.Packed
	}
	return kn.WQ
}

// gemmBackend is the in-place GEMM engine. kn.SW is set on exactly the
// kernels compiled for the sparse backend (Kernel.Validate).
type gemmBackend struct{}

func (gemmBackend) ConvBatch(kn *KernelNode, xs []*quant.QTensor, stride, pad int, col *[]int8, acc *[]int32, fan bool) (quant.ConvShape, error) {
	return quant.ConvGemmBatch(xs, kn.WQ, kn.SW, kn.BiasQ, stride, pad, col, acc, fan)
}

func (gemmBackend) DenseBatch(kn *KernelNode, xs []*quant.QTensor, acc *[]int32, fan bool) (int, error) {
	return quant.DenseGemmBatch(xs, kn.WQ, kn.SW, kn.BiasQ, acc, fan)
}

// naiveBackend is the direct conv/FC reference oracle. Its results land
// in the caller's acc arena like the engine backends, so the executor
// epilogue is shared verbatim and the paths cannot drift apart.
type naiveBackend struct{}

func (naiveBackend) ConvBatch(kn *KernelNode, xs []*quant.QTensor, stride, pad int, _ *[]int8, acc *[]int32, _ bool) (quant.ConvShape, error) {
	var sh quant.ConvShape
	*acc = (*acc)[:0]
	for b, x := range xs {
		a, dd, err := quant.Conv2DInt8(x, kn.WQ, kn.BiasQ, stride, pad)
		if err != nil {
			return sh, err
		}
		if b == 0 {
			sh = quant.ConvShape{OutC: dd[0], OutH: dd[1], OutW: dd[2]}
		} else if len(a) != sh.AccLen() {
			return sh, fmt.Errorf("dpu: batch image %d accumulator length %d != %d", b, len(a), sh.AccLen())
		}
		*acc = append(*acc, a...)
	}
	return sh, nil
}

func (naiveBackend) DenseBatch(kn *KernelNode, xs []*quant.QTensor, acc *[]int32, _ bool) (int, error) {
	width := 0
	*acc = (*acc)[:0]
	for b, x := range xs {
		a, dd, err := quant.DenseInt8(x, kn.WQ, kn.BiasQ)
		if err != nil {
			return 0, err
		}
		if b == 0 {
			width = dd[0]
		} else if len(a) != width {
			return 0, fmt.Errorf("dpu: batch image %d accumulator length %d != %d", b, len(a), width)
		}
		*acc = append(*acc, a...)
	}
	return width, nil
}

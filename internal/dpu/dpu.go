package dpu

import (
	"fmt"
	"math"
	"math/rand"

	"fpgauv/internal/board"
	"fpgauv/internal/ecc"
	"fpgauv/internal/fabric"
	"fpgauv/internal/nn"
	"fpgauv/internal/quant"
	"fpgauv/internal/tensor"
)

// DPU is a set of DPU cores programmed into a board's fabric.
type DPU struct {
	brd    *board.ZCU102
	cfg    Config
	nCores int
	// refKernels forces the naive direct conv/FC kernels instead of the
	// GEMM lowering — the reference oracle the equivalence tests
	// and benchmarks compare against.
	refKernels bool
	// prot is the BRAM SECDED policy. When enabled, weight faults are
	// sampled per 64-bit word and routed through the codec; when nil or
	// disabled the unprotected per-bit flips apply.
	prot *ecc.Protection
}

// New programs nCores instances of the given variant into the board's
// fabric, validating resource capacity.
func New(brd *board.ZCU102, cfg Config, nCores int) (*DPU, error) {
	if nCores <= 0 {
		return nil, fmt.Errorf("dpu: need at least one core")
	}
	total := fabric.Utilization{}
	for i := 0; i < nCores; i++ {
		total = total.Add(cfg.Util)
	}
	if err := brd.Fabric().Configure(total); err != nil {
		return nil, fmt.Errorf("dpu: %d x %s does not fit: %w", nCores, cfg.Arch, err)
	}
	if cfg.GemmWorkers > 0 {
		quant.SetWorkers(cfg.GemmWorkers)
	}
	return &DPU{brd: brd, cfg: cfg, nCores: nCores}, nil
}

// Board returns the board the DPU is programmed on.
func (d *DPU) Board() *board.ZCU102 { return d.brd }

// Config returns the core variant.
func (d *DPU) Config() Config { return d.cfg }

// Cores returns the instantiated core count: fabric utilization and the
// GOPs and power models scale with it. It plays no part in how the host
// executes a pass (batch.go cuts a pass for the executors that exist).
func (d *DPU) Cores() int { return d.nCores }

// SetReferenceKernels toggles the naive direct conv/FC kernels in place of
// the GEMM compute engine. The two paths are bit-exact (including
// fault-injection statistics); the naive path exists as the oracle for
// equivalence tests and as the baseline for the kernel benchmarks.
func (d *DPU) SetReferenceKernels(on bool) { d.refKernels = on }

// SetProtection installs (or removes, with nil) the BRAM SECDED policy.
// Toggling an installed policy at runtime goes through
// Protection.SetEnabled; the executor re-checks it on every pass.
func (d *DPU) SetProtection(p *ecc.Protection) { d.prot = p }

// Protection returns the installed BRAM SECDED policy (nil when none).
func (d *DPU) Protection() *ecc.Protection { return d.prot }

// Result is the outcome of one inference on the DPU. Results of runs
// through a caller-owned Scratch (the Result itself and its Probs tensor)
// are staged in the arena and only valid until the next run on it.
type Result struct {
	// Probs is the host-side softmax output.
	Probs *tensor.Tensor
	// Pred is the argmax class.
	Pred int
	// MACFaults and BRAMFaults count injected corruption events. With
	// SECDED protection enabled, BRAMFaults counts raw flipped bits
	// exactly like the unprotected path — the physical fault rate is the
	// same either way; ECC only changes what the consumer observes.
	MACFaults  int64
	BRAMFaults int64
	// ECC splits the pass's faulted BRAM words by SECDED outcome
	// (all-zero when protection is disabled).
	ECC ecc.Counts
	// ExecNS is the wall-clock device time of the pass that produced
	// this result, in nanoseconds; every image of a micro-batch is
	// stamped with the batch's shared pass time. Observability
	// layers use it to split pure execute time from lock/queue overhead
	// around the call. Zero on the clean reference paths.
	ExecNS int64
}

// runHostNode executes one non-weight node (pooling, activations, host
// ops) of one image into its sub-arena's activation for node i.
func (d *DPU) runHostNode(s *Scratch, i int, n nn.Node, kn *KernelNode, k *Kernel) error {
	acts := s.refs
	switch op := n.Op.(type) {
	case *nn.Pool2D:
		x, err := s.fetch(n.Inputs[0])
		if err != nil {
			return err
		}
		out := s.act(i)
		if op.Kind == nn.MaxPool {
			err = quant.MaxPoolQInto(out, x, op.Kernel, op.Stride, op.Global)
		} else {
			err = quant.AvgPoolQInto(out, x, op.Kernel, op.Stride, op.Global)
		}
		if err != nil {
			return fmt.Errorf("dpu: node %q: %w", n.Label, err)
		}
		acts[i] = out
	case nn.ReLU:
		x, err := s.fetch(n.Inputs[0])
		if err != nil {
			return err
		}
		if src := n.Inputs[0]; src >= 0 && s.fuseReLU[src] == n.ID {
			// Already applied in the producer's GEMM epilogue.
			acts[i] = x
			return nil
		}
		out := s.act(i)
		quant.ReLUQInto(out, x)
		acts[i] = out
	case nn.Sigmoid:
		x, err := s.fetch(n.Inputs[0])
		if err != nil {
			return err
		}
		out := s.act(i)
		if err := sigmoidQInto(out, s, x, kn.OutScale, k.Bits); err != nil {
			return fmt.Errorf("dpu: node %q: %w", n.Label, err)
		}
		acts[i] = out
	case *nn.LRN:
		// Host-side op (like softmax): dequantize, normalize,
		// requantize at the calibrated scale.
		x, err := s.fetch(n.Inputs[0])
		if err != nil {
			return err
		}
		f, err := op.Forward([]*tensor.Tensor{x.Dequantize()})
		if err != nil {
			return fmt.Errorf("dpu: node %q: %w", n.Label, err)
		}
		out := s.act(i)
		if err := quant.QuantizeWithScaleInto(out, f, kn.OutScale, k.Bits); err != nil {
			return err
		}
		acts[i] = out
	case *nn.BatchNorm:
		x, err := s.fetch(n.Inputs[0])
		if err != nil {
			return err
		}
		out := s.act(i)
		quant.BatchNormQInto(out, x, op.Scale, op.Shift, kn.OutScale, k.Bits)
		acts[i] = out
	case nn.Flatten:
		x, err := s.fetch(n.Inputs[0])
		if err != nil {
			return err
		}
		// Shared-data reshape view: flattening only rewrites Dims.
		out := s.act(i)
		out.Data = x.Data
		out.Dims = append(out.Dims[:0], len(x.Data))
		out.Scale = x.Scale
		out.Bits = x.Bits
		acts[i] = out
	case nn.Add:
		a, err := s.fetch(n.Inputs[0])
		if err != nil {
			return err
		}
		out := s.act(i)
		sum := a
		for _, id := range n.Inputs[1:] {
			b, err := s.fetch(id)
			if err != nil {
				return err
			}
			if err := quant.AddQInto(out, sum, b, kn.OutScale, k.Bits); err != nil {
				return fmt.Errorf("dpu: node %q: %w", n.Label, err)
			}
			sum = out
		}
		acts[i] = sum
	case nn.Concat:
		ins := s.concatTable(len(n.Inputs))
		for j, id := range n.Inputs {
			x, err := s.fetch(id)
			if err != nil {
				return err
			}
			ins[j] = x
		}
		out := s.act(i)
		if err := quant.ConcatQInto(out, ins, kn.OutScale, k.Bits); err != nil {
			return fmt.Errorf("dpu: node %q: %w", n.Label, err)
		}
		acts[i] = out
	case nn.Softmax:
		// DNNDK computes softmax on the ARM host, in float.
		x, err := s.fetch(n.Inputs[0])
		if err != nil {
			return err
		}
		probs := floatStage(&s.probs, x.Size())
		x.DequantizeInto(probs)
		if err := nn.SoftmaxInPlace(probs.Data()); err != nil {
			return fmt.Errorf("dpu: node %q: %w", n.Label, err)
		}
		s.final = probs
		// Keep a quantized copy in case the graph continues.
		out := s.act(i)
		if err := quant.QuantizeWithScaleInto(out, probs, kn.OutScale, k.Bits); err != nil {
			return err
		}
		out.Dims = append(out.Dims[:0], x.Dims...)
		acts[i] = out
	default:
		return fmt.Errorf("dpu: node %q: unsupported op %T", n.Label, n.Op)
	}
	return nil
}

// finishRun resolves the run's host-side output (the softmax staging
// tensor, or the dequantized graph output for softmax-less graphs) into
// the staged Result.
func finishRun(s *Scratch, k *Kernel, res *Result) error {
	final := s.final
	if final == nil {
		out, err := s.fetch(k.Graph.Output())
		if err != nil {
			return err
		}
		final = out.Dequantize()
	}
	res.Probs = final
	res.Pred = final.ArgMax()
	return nil
}

// faultTileSpan is the blast radius of one timing-fault event. The B4096
// MAC array computes a channel-parallel tile of outputs per cycle; a
// timing violation on a shared partial-sum path corrupts the whole tile,
// not a single accumulator.
const faultTileSpan = 4

// faultBitRange bounds the flipped accumulator bit: most flips land in the
// low-order noise range, a minority in the catastrophic high bits, which
// matches observed undervolting fault severity distributions.
const faultBitRange = 20

// injectMACFaults corrupts sampled accumulator tiles with single-bit
// flips, modeling timing faults in the DSP datapath. The number of events
// is Binomial(MACs, p); each event flips one bit per accumulator of a
// small output tile, producing the realistic spread
// from negligible to catastrophic logit perturbations.
func injectMACFaults(acc []int32, macs int64, p float64, rng *rand.Rand) int64 {
	if p <= 0 || len(acc) == 0 {
		return 0
	}
	k := fabric.SampleFaults(rng, macs, p)
	for i := int64(0); i < k; i++ {
		start := rng.Intn(len(acc))
		for j := 0; j < faultTileSpan && start+j < len(acc); j++ {
			bit := uint(rng.Intn(faultBitRange))
			acc[start+j] ^= 1 << bit
		}
	}
	return k
}

// sigmoidQInto computes sigmoid through the host float path (the DPU
// lacks a native sigmoid; DNNDK falls back to the CPU), staging the float
// intermediate in the Scratch.
func sigmoidQInto(dst *quant.QTensor, s *Scratch, x *quant.QTensor, outScale float32, bits int) error {
	f := floatStage(&s.logits, x.Size())
	x.DequantizeInto(f)
	data := f.Data()
	for i, v := range data {
		data[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
	if err := quant.QuantizeWithScaleInto(dst, f, outScale, bits); err != nil {
		return err
	}
	dst.Dims = append(dst.Dims[:0], x.Dims...)
	return nil
}

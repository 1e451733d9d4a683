// Package dnndk models the Xilinx DNNDK toolchain the paper deploys with
// (§3.1): DECENT (DEep ComprEssioN Tool — quantization and pruning), the
// DNNC-style compiler lowering a network to DPU kernels, and an
// N2Cube-style runtime that loads kernels, stages weights in DDR, runs
// classification tasks and profiles throughput and power.
package dnndk

import (
	"fmt"
	"math"

	"fpgauv/internal/board"
	"fpgauv/internal/dpu"
	"fpgauv/internal/models"
	"fpgauv/internal/nn"
	"fpgauv/internal/prune"
	"fpgauv/internal/quant"
	"fpgauv/internal/tensor"
)

// QuantizeOptions configures DECENT quantization.
type QuantizeOptions struct {
	// Bits is the fixed-point precision (8 = the paper's baseline;
	// 7..4 evaluated in §6.1; 3 and below break even at Vnom).
	Bits int
	// CalibImages is the calibration-set size used to fix activation
	// scales.
	CalibImages int
	// CalibSeed derives the calibration set.
	CalibSeed int64
	// Sparsity, when non-zero, applies magnitude pruning before
	// quantization (§6.2). Unstructured per-weight pruning by default;
	// PruneBlocks selects the block-structured mode.
	Sparsity float64
	// PruneBlocks prunes in quant.SparseBlockRows×1 blocks
	// (prune.ApplyBlocks) so the zeroed weights land on whole skip
	// blocks the sparse backend elides, making the realized block
	// sparsity equal the requested fraction.
	PruneBlocks bool
	// Backend selects the compute backend the kernel compiles for:
	// "" or dpu.BackendAuto picks per kernel — sparse when the
	// realized block sparsity of the quantized weights reaches
	// SparseAutoThreshold, dense otherwise; dpu.BackendDense and
	// dpu.BackendSparse force one.
	Backend string
}

// SparseAutoThreshold is the realized block-sparsity fraction at which
// auto backend selection deploys a kernel on the sparse backend.
// Re-measured on the in-place lowering (root BenchmarkSparseGemm, 64×288
// weights over 1024 pixels, one worker, Xeon @ 2.60 GHz): sparse over
// dense is 1.00 at 0%, 0.75 at 25%, 0.52 at 50% and 0.14 at 90% block
// sparsity. Both images run the same inner step, so there is no
// break-even left to clear — an unpruned packed image costs nothing —
// and the threshold is a policy, not a crossover: below 25% the packed
// format saves under a quarter of the lowering's time, and the kernel
// stays on the plain dense image. Unstructured pruning only clears it at extreme
// sparsity (skip probability is s^4); block-structured pruning
// (PruneBlocks) realizes it at the requested fraction.
const SparseAutoThreshold = 0.25

// DefaultQuantizeOptions returns the paper's baseline: INT8, no pruning.
func DefaultQuantizeOptions() QuantizeOptions {
	return QuantizeOptions{Bits: 8, CalibImages: 8, CalibSeed: 1}
}

// Quantize runs the DECENT flow on a benchmark: optional pruning, BN
// folding, activation calibration, weight quantization — and compiles the
// result into a deployable DPU kernel. The benchmark's graph is
// transformed in place (pruning zeroes weights, BN folds into convs),
// exactly like the real tool rewrites the model.
func Quantize(b *models.Benchmark, opts QuantizeOptions) (*dpu.Kernel, error) {
	if opts.Bits == 0 {
		opts.Bits = 8
	}
	if opts.Bits < quant.MinBits || opts.Bits > quant.MaxBits {
		return nil, fmt.Errorf("dnndk: unsupported precision INT%d", opts.Bits)
	}
	if opts.CalibImages <= 0 {
		opts.CalibImages = 8
	}

	if !dpu.ValidBackend(opts.Backend) {
		return nil, fmt.Errorf("dnndk: unknown backend %q", opts.Backend)
	}

	sparsity := 0.0
	vuln := 1.0
	if opts.Sparsity > 0 {
		var rep prune.Report
		var err error
		if opts.PruneBlocks {
			rep, err = prune.ApplyBlocks(b.Graph, opts.Sparsity, quant.SparseBlockRows)
		} else {
			rep, err = prune.Apply(b.Graph, opts.Sparsity)
		}
		if err != nil {
			return nil, fmt.Errorf("dnndk: pruning: %w", err)
		}
		sparsity = rep.EffectiveSparsity()
		vuln = prune.VulnerabilityScale(sparsity)
	}

	foldBatchNorm(b.Graph)

	// Calibration: observe per-node activation ranges (max-abs) on a
	// small deterministic calibration set. Each image's forward reduces
	// to its per-node max-abs on the goroutine that ran it; the fold runs
	// in image order afterwards.
	calibSet := b.MakeDataset(opts.CalibImages, opts.CalibSeed^0xca11b)
	ranges := make([][]float32, len(calibSet.Inputs))
	err := b.Graph.ForwardEach(calibSet.Inputs, func(i int, outs []*tensor.Tensor) {
		ranges[i] = make([]float32, len(outs))
		for j, out := range outs {
			ranges[i][j] = out.MaxAbs()
		}
	})
	if err != nil {
		return nil, fmt.Errorf("dnndk: calibration: %w", err)
	}
	var inMax float32
	nodeMax := make([]float32, len(b.Graph.Nodes()))
	for i, img := range calibSet.Inputs {
		inMax = max(inMax, img.MaxAbs())
		for j, m := range ranges[i] {
			nodeMax[j] = max(nodeMax[j], m)
		}
	}

	k := &dpu.Kernel{
		Name:        b.Name,
		Graph:       b.Graph,
		Bits:        opts.Bits,
		Classes:     b.Classes,
		InScale:     quant.ScaleFor(inMax, opts.Bits),
		Nodes:       make([]dpu.KernelNode, len(b.Graph.Nodes())),
		ComputeFrac: b.ComputeFrac,
		Sparsity:    sparsity,
		VulnScale:   vuln,
	}
	k.Workload = board.Workload{
		UtilScale:   utilScaleFor(b, opts.Bits),
		ComputeFrac: b.ComputeFrac,
		Stress:      b.Stress,
		Pruned:      sparsity > 0,
	}

	// Per-node scales: activations propagate topologically; conv/FC
	// weights are quantized with their own max-abs scale.
	actScale := make([]float32, len(b.Graph.Nodes()))
	inputScaleOf := func(n nn.Node) float32 {
		id := n.Inputs[0]
		if id == nn.InputID {
			return k.InScale
		}
		return actScale[id]
	}
	for i, n := range b.Graph.Nodes() {
		kn := &k.Nodes[i]
		kn.MACs = n.Op.MACs(b.Graph.InputShapesOf(n))
		switch op := n.Op.(type) {
		case *nn.Conv2D:
			wq, err := quant.Quantize(op.Weights, opts.Bits)
			if err != nil {
				return nil, err
			}
			kn.WQ = wq
			kn.AccScale = inputScaleOf(n) * wq.Scale
			kn.BiasQ = quant.QuantizeBias(op.Bias, kn.AccScale)
			kn.OutScale = quant.ScaleFor(nodeMax[i], opts.Bits)
			actScale[i] = kn.OutScale
		case *nn.Dense:
			wq, err := quant.Quantize(op.Weights, opts.Bits)
			if err != nil {
				return nil, err
			}
			kn.WQ = wq
			kn.AccScale = inputScaleOf(n) * wq.Scale
			kn.BiasQ = quant.QuantizeBias(op.Bias, kn.AccScale)
			kn.OutScale = quant.ScaleFor(nodeMax[i], opts.Bits)
			actScale[i] = kn.OutScale
		case *nn.Pool2D, nn.ReLU, nn.Flatten:
			// Scale-preserving ops inherit their input's scale.
			kn.OutScale = inputScaleOf(n)
			actScale[i] = kn.OutScale
		default:
			// Rescaling ops (Add, Concat, BatchNorm, Sigmoid,
			// Softmax) use their calibrated output range.
			kn.OutScale = quant.ScaleFor(nodeMax[i], opts.Bits)
			actScale[i] = kn.OutScale
		}
	}

	if err := selectBackend(k, opts.Backend); err != nil {
		return nil, err
	}

	k.Program = compileProgram(b, opts.Bits, sparsity)
	if err := k.Validate(); err != nil {
		return nil, fmt.Errorf("dnndk: compiled kernel invalid: %w", err)
	}
	return k, nil
}

// selectBackend resolves the kernel's compute backend and, when sparse
// is chosen, packs every weight node into the block-sparse BRAM image.
// Auto mode measures the realized block sparsity of the quantized
// weights — the fraction of SparseBlockRows×1 blocks that are entirely
// zero, i.e. exactly what the sparse engine can skip — and deploys
// sparse when it reaches SparseAutoThreshold.
func selectBackend(k *dpu.Kernel, requested string) error {
	if requested == dpu.BackendDense {
		k.Backend = dpu.BackendDense
		return nil
	}
	var blocks, slots int64
	for i := range k.Nodes {
		kn := &k.Nodes[i]
		if kn.WQ == nil {
			continue
		}
		sw, err := quant.PackSparse(kn.WQ)
		if err != nil {
			return fmt.Errorf("dnndk: packing sparse weights: %w", err)
		}
		kn.SW = sw
		blocks += int64(sw.Blocks())
		slots += int64(sw.Groups()) * int64(sw.K)
	}
	blockSparsity := 0.0
	if slots > 0 {
		blockSparsity = 1 - float64(blocks)/float64(slots)
	}
	if requested == dpu.BackendSparse || blockSparsity >= SparseAutoThreshold {
		k.Backend = dpu.BackendSparse
		return nil
	}
	k.Backend = dpu.BackendDense
	for i := range k.Nodes {
		k.Nodes[i].SW = nil
	}
	return nil
}

// utilScaleFor adjusts a benchmark's dynamic-power factor for precision:
// narrower multipliers toggle fewer DSP bits, so dynamic power scales
// roughly with (bits/8)^1.2 — the mechanism behind Fig. 7b's higher
// GOPs/W at lower precision.
func utilScaleFor(b *models.Benchmark, bits int) float64 {
	scale := b.UtilScale
	if bits < 8 {
		scale *= math.Pow(float64(bits)/8, 1.2)
	}
	return scale
}

// foldBatchNorm folds every BatchNorm whose input is a Conv2D into the conv's
// weights and bias, leaving the BN as identity — the standard deployment
// rewrite DECENT performs.
func foldBatchNorm(g *nn.Graph) {
	nodes := g.Nodes()
	for _, n := range nodes {
		bn, ok := n.Op.(*nn.BatchNorm)
		if !ok || len(n.Inputs) != 1 || n.Inputs[0] == nn.InputID {
			continue
		}
		prev := nodes[n.Inputs[0]]
		conv, ok := prev.Op.(*nn.Conv2D)
		if !ok || conv.OutC != len(bn.Scale) {
			continue
		}
		wd := conv.Weights.Data()
		per := conv.InC * conv.Kernel * conv.Kernel
		for oc := 0; oc < conv.OutC; oc++ {
			s := bn.Scale[oc]
			for i := oc * per; i < (oc+1)*per; i++ {
				wd[i] *= s
			}
			conv.Bias[oc] = conv.Bias[oc]*s + bn.Shift[oc]
			bn.Scale[oc] = 1
			bn.Shift[oc] = 0
		}
	}
}

package dpu

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"fpgauv/internal/board"
	"fpgauv/internal/nn"
	"fpgauv/internal/pmbus"
	"fpgauv/internal/quant"
	"fpgauv/internal/tensor"
)

// buildExoticKernel hand-compiles a small graph covering the executor ops
// the model zoo does not exercise (Sigmoid, non-folded BatchNorm on the
// executor path) alongside the common ones.
func buildExoticKernel(t *testing.T) (*DPU, *Kernel, *tensor.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	g := nn.NewGraph(nn.Shape{C: 2, H: 8, W: 8})
	g.Add("conv", nn.NewConv2D(rng, 2, 4, 3, 1, 1))
	bn := nn.NewBatchNorm(4)
	for i := range bn.Scale {
		bn.Scale[i] = 0.9
		bn.Shift[i] = 0.05
	}
	g.Add("bn", bn)
	g.Add("sigmoid", nn.Sigmoid{})
	g.Add("pool", &nn.Pool2D{Kind: nn.AvgPool, Kernel: 2, Stride: 2})
	g.Add("flatten", nn.Flatten{})
	g.Add("fc", nn.NewDense(rng, 4*4*4, 5))
	g.Add("softmax", nn.Softmax{})

	input := tensor.New(2, 8, 8)
	input.FillRandn(rand.New(rand.NewSource(7)), 1)

	// Hand-calibrate: one float pass provides activation ranges.
	outs, err := g.ForwardAll(input)
	if err != nil {
		t.Fatal(err)
	}
	k := &Kernel{
		Name:        "exotic",
		Graph:       g,
		Bits:        8,
		Classes:     5,
		InScale:     quant.ScaleFor(input.MaxAbs(), 8),
		Nodes:       make([]KernelNode, len(g.Nodes())),
		ComputeFrac: 0.58,
		VulnScale:   1,
	}
	k.Workload = board.Workload{UtilScale: 1, ComputeFrac: 0.58}
	actScale := make([]float32, len(g.Nodes()))
	inScaleOf := func(n nn.Node) float32 {
		if n.Inputs[0] == nn.InputID {
			return k.InScale
		}
		return actScale[n.Inputs[0]]
	}
	for i, n := range g.Nodes() {
		kn := &k.Nodes[i]
		kn.MACs = n.Op.MACs(g.InputShapesOf(n))
		outScale := quant.ScaleFor(outs[i].MaxAbs(), 8)
		if outScale <= 0 {
			outScale = 1
		}
		switch op := n.Op.(type) {
		case *nn.Conv2D:
			wq, err := quant.Quantize(op.Weights, 8)
			if err != nil {
				t.Fatal(err)
			}
			kn.WQ = wq
			kn.AccScale = inScaleOf(n) * wq.Scale
			kn.BiasQ = quant.QuantizeBias(op.Bias, kn.AccScale)
			kn.OutScale = outScale
		case *nn.Dense:
			wq, err := quant.Quantize(op.Weights, 8)
			if err != nil {
				t.Fatal(err)
			}
			kn.WQ = wq
			kn.AccScale = inScaleOf(n) * wq.Scale
			kn.BiasQ = quant.QuantizeBias(op.Bias, kn.AccScale)
			kn.OutScale = outScale
		case *nn.Pool2D:
			kn.OutScale = inScaleOf(n)
		case nn.Flatten:
			kn.OutScale = inScaleOf(n)
		default:
			kn.OutScale = outScale
		}
		actScale[i] = kn.OutScale
	}
	k.Program = Program{
		Instrs:       []Instr{{Kind: InstrConv, Ops: 2 * g.TotalMACs(), Efficiency: 0.75}},
		OpsPerImage:  2 * g.TotalMACs(),
		EffectiveOps: 2 * g.TotalMACs(),
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	d, err := New(board.MustNew(board.SampleB), B4096(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return d, k, input
}

func TestExecutorCoversSigmoidAndBatchNorm(t *testing.T) {
	d, k, input := buildExoticKernel(t)
	res := cleanOne(t, d, nil, k, input)
	if res.Probs.Size() != 5 {
		t.Fatalf("output size %d", res.Probs.Size())
	}
	var sum float64
	for _, v := range res.Probs.Data() {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Fatalf("softmax sum %f", sum)
	}
	// Quantized path should agree with the float reference argmax.
	ref, err := k.Graph.Forward(input)
	if err != nil {
		t.Fatal(err)
	}
	if ref.ArgMax() != res.Pred {
		t.Fatalf("quantized argmax %d != float %d", res.Pred, ref.ArgMax())
	}
}

func TestExecutorDeterministicCleanRuns(t *testing.T) {
	d, k, input := buildExoticKernel(t)
	a := cleanOne(t, d, nil, k, input)
	b := cleanOne(t, d, nil, k, input)
	for i := range a.Probs.Data() {
		if a.Probs.Data()[i] != b.Probs.Data()[i] {
			t.Fatal("clean runs must be bit-identical")
		}
	}
}

func TestExecutorRunMatchesCleanInGuardband(t *testing.T) {
	d, k, input := buildExoticKernel(t)
	clean := cleanOne(t, d, nil, k, input)
	live, err := d.RunWith(nil, k, input, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if live.Pred != clean.Pred || live.MACFaults != 0 {
		t.Fatal("at nominal voltage RunWith must equal the clean pass with zero faults")
	}
}

func TestExecutorRefusesWhenHung(t *testing.T) {
	d, k, input := buildExoticKernel(t)
	brd := d.Board()
	// Crash via a legitimate undervolt below Vcrash.
	a := pmbus.NewAdapter(brd.Bus(), board.AddrVCCINT)
	if err := a.SetVoltageMV(520); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunWith(nil, k, input, rand.New(rand.NewSource(1))); !errors.Is(err, board.ErrHung) {
		t.Fatalf("expected ErrHung, got %v", err)
	}
	// The clean pass is the host-side reference path and stays usable.
	if _, err := d.RunBatchClean(nil, k, []*tensor.Tensor{input}); err != nil {
		t.Fatalf("RunBatchClean should not depend on board state: %v", err)
	}
}

package dpu

import (
	"math/rand"
	"testing"

	"fpgauv/internal/board"
	"fpgauv/internal/nn"
	"fpgauv/internal/quant"
	"fpgauv/internal/tensor"
)

// buildConvNetKernel hand-compiles a conv→ReLU→pool→conv→ReLU→flatten→
// fc→ReLU→fc→softmax chain — the shape of the model-zoo benchmarks —
// so the GEMM lowering, the fused ReLU epilogue, and the flatten view
// are all on the executed path.
func buildConvNetKernel(t *testing.T) (*DPU, *Kernel, []*tensor.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(97))
	g := nn.NewGraph(nn.Shape{C: 3, H: 12, W: 12})
	g.Add("conv1", nn.NewConv2D(rng, 3, 4, 3, 1, 1))
	g.Add("relu1", nn.ReLU{})
	g.Add("pool1", &nn.Pool2D{Kind: nn.MaxPool, Kernel: 2, Stride: 2})
	g.Add("conv2", nn.NewConv2D(rng, 4, 6, 3, 2, 0))
	g.Add("relu2", nn.ReLU{})
	g.Add("flatten", nn.Flatten{})
	g.Add("fc1", nn.NewDense(rng, 6*2*2, 8))
	g.Add("relu3", nn.ReLU{})
	g.Add("fc2", nn.NewDense(rng, 8, 5))
	g.Add("softmax", nn.Softmax{})

	inputs := make([]*tensor.Tensor, 3)
	for i := range inputs {
		inputs[i] = tensor.New(3, 12, 12)
		inputs[i].FillRandn(rand.New(rand.NewSource(int64(100+i))), 1)
	}

	outs, err := g.ForwardAll(inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	k := &Kernel{
		Name:        "convnet",
		Graph:       g,
		Bits:        8,
		Classes:     5,
		InScale:     quant.ScaleFor(inputs[0].MaxAbs(), 8),
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
		default:
			kn.OutScale = inScaleOf(n)
			if _, ok := n.Op.(nn.Softmax); ok {
				kn.OutScale = outScale
			}
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
	return d, k, inputs
}

// snapshotResult copies the arena-staged parts of a Result so it can be
// compared after later runs reuse the arena.
func snapshotResult(r *Result) *Result {
	return &Result{
		Probs:      r.Probs.Clone(),
		Pred:       r.Pred,
		MACFaults:  r.MACFaults,
		BRAMFaults: r.BRAMFaults,
	}
}

// runOne executes img as the batch of one at forced fault probabilities
// through a fresh arena, its fault stream seeded with seed.
func runOne(t *testing.T, d *DPU, k *Kernel, img *tensor.Tensor, seed int64, pMAC, pBRAM float64) *Result {
	t.Helper()
	res, err := d.runBatch(nil, k, []*tensor.Tensor{img}, []*rand.Rand{rand.New(rand.NewSource(seed))}, pMAC, pBRAM)
	if err != nil {
		t.Fatal(err)
	}
	return &res[0]
}

// cleanOne executes img as the fault-free batch of one through arena s
// (nil: a fresh arena and a detached result).
func cleanOne(t *testing.T, d *DPU, s *Scratch, k *Kernel, img *tensor.Tensor) *Result {
	t.Helper()
	res, err := d.RunBatchClean(s, k, []*tensor.Tensor{img})
	if err != nil {
		t.Fatal(err)
	}
	return &res[0]
}

// TestGemmMatchesReferenceExecutorUnderFaults drives the full executor at
// forced MAC and BRAM fault probabilities and requires the GEMM engine to
// reproduce the reference path bit-for-bit: identical probabilities,
// predictions, and fault-injection statistics for identical seeds.
func TestGemmMatchesReferenceExecutorUnderFaults(t *testing.T) {
	d, k, inputs := buildConvNetKernel(t)
	const pMAC, pBRAM = 2e-4, 2e-5
	for seed := int64(1); seed <= 8; seed++ {
		for _, img := range inputs {
			d.SetReferenceKernels(true)
			ref := runOne(t, d, k, img, seed, pMAC, pBRAM)
			d.SetReferenceKernels(false)
			got := runOne(t, d, k, img, seed, pMAC, pBRAM)
			if got.Pred != ref.Pred {
				t.Fatalf("seed %d: pred %d != %d", seed, got.Pred, ref.Pred)
			}
			if got.MACFaults != ref.MACFaults || got.BRAMFaults != ref.BRAMFaults {
				t.Fatalf("seed %d: fault statistics diverge: MAC %d/%d BRAM %d/%d",
					seed, got.MACFaults, ref.MACFaults, got.BRAMFaults, ref.BRAMFaults)
			}
			rp, gp := ref.Probs.Data(), got.Probs.Data()
			for i := range rp {
				if rp[i] != gp[i] {
					t.Fatalf("seed %d: probs[%d] %v != %v", seed, i, gp[i], rp[i])
				}
			}
		}
	}
}

// TestFlipAndRestorePreservesWeights forces BRAM flips and checks the
// shared weight tensors are bit-identical after the run: the pass's
// flips were undone without cloning.
func TestFlipAndRestorePreservesWeights(t *testing.T) {
	d, k, inputs := buildConvNetKernel(t)
	before := make(map[int][]int8)
	for i, kn := range k.Nodes {
		if kn.WQ != nil {
			before[i] = append([]int8(nil), kn.WQ.Data...)
		}
	}
	var faults int64
	for seed := int64(1); seed <= 20; seed++ {
		faults += runOne(t, d, k, inputs[0], seed, 0, 1e-4).BRAMFaults
	}
	if faults == 0 {
		t.Fatal("expected BRAM flips at p=1e-4")
	}
	for i, want := range before {
		got := k.Nodes[i].WQ.Data
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("node %d weight[%d] not restored: %d != %d", i, j, got[j], want[j])
			}
		}
	}
}

// TestScratchReuseDeterministic interleaves different inputs through one
// arena and requires bit-identical results versus fresh-arena runs: no
// state leaks across requests.
func TestScratchReuseDeterministic(t *testing.T) {
	d, k, inputs := buildConvNetKernel(t)
	s := NewScratch()
	var shared []*Result
	for round := 0; round < 2; round++ {
		for _, img := range inputs {
			shared = append(shared, snapshotResult(cleanOne(t, d, s, k, img)))
		}
	}
	i := 0
	for round := 0; round < 2; round++ {
		for _, img := range inputs {
			want := cleanOne(t, d, nil, k, img)
			got := shared[i]
			i++
			if got.Pred != want.Pred {
				t.Fatalf("run %d: pred %d != %d", i, got.Pred, want.Pred)
			}
			wp, gp := want.Probs.Data(), got.Probs.Data()
			for j := range wp {
				if wp[j] != gp[j] {
					t.Fatalf("run %d: probs[%d] %v != %v", i, j, gp[j], wp[j])
				}
			}
		}
	}
}

// TestScratchStructuralOptimizations pins the arena's structural claims:
// the conv/FC→ReLU pairs are fused, the ReLU activation aliases its
// producer, and flatten is a shared-data view of its input.
func TestScratchStructuralOptimizations(t *testing.T) {
	d, k, inputs := buildConvNetKernel(t)
	arena := NewScratch()
	cleanOne(t, d, arena, k, inputs[0])
	s := arena.batch.imgs[0] // the image's sub-arena
	// Node order per buildConvNetKernel:
	// 0 conv1, 1 relu1, 2 pool1, 3 conv2, 4 relu2, 5 flatten, 6 fc1,
	// 7 relu3, 8 fc2, 9 softmax.
	for _, pair := range [][2]int{{0, 1}, {3, 4}, {6, 7}} {
		if int(s.fuseReLU[pair[0]]) != pair[1] {
			t.Fatalf("node %d: ReLU %d not fused (got %d)", pair[0], pair[1], s.fuseReLU[pair[0]])
		}
		if s.refs[pair[0]] != s.refs[pair[1]] {
			t.Fatalf("fused ReLU %d must alias node %d's activation", pair[1], pair[0])
		}
	}
	if s.fuseReLU[8] != -1 {
		t.Fatal("fc2 feeds softmax: nothing to fuse")
	}
	// Flatten (5) must share relu2/conv2's (4) backing array.
	if &s.refs[5].Data[0] != &s.refs[4].Data[0] {
		t.Fatal("flatten must be a shared-data view, not a clone")
	}
	if len(s.refs[5].Dims) != 1 || s.refs[5].Dims[0] != len(s.refs[4].Data) {
		t.Fatalf("flatten dims wrong: %v", s.refs[5].Dims)
	}
}

// TestScratchRebindsAcrossKernels runs two kernels alternately through
// one arena; re-binding must keep results identical to dedicated arenas.
func TestScratchRebindsAcrossKernels(t *testing.T) {
	d1, k1, in1 := buildConvNetKernel(t)
	_, k2, in2 := buildExoticKernel(t)
	s := NewScratch()
	for i := 0; i < 2; i++ {
		predA := cleanOne(t, d1, s, k1, in1[0]).Pred
		predB := cleanOne(t, d1, s, k2, in2).Pred
		wantA := cleanOne(t, d1, nil, k1, in1[0])
		wantB := cleanOne(t, d1, nil, k2, in2)
		if predA != wantA.Pred || predB != wantB.Pred {
			t.Fatalf("rebind diverged: %d/%d vs %d/%d", predA, predB, wantA.Pred, wantB.Pred)
		}
	}
}

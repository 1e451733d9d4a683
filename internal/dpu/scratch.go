package dpu

import (
	"fmt"
	"math/rand"

	"fpgauv/internal/nn"
	"fpgauv/internal/quant"
	"fpgauv/internal/tensor"
)

// Scratch is a per-worker arena for the inference hot path. The arena a
// caller owns holds the pass-level state (batch: per-executor stacked GEMM
// buffers, staged results, weight-restore records) plus one sub-arena —
// itself a Scratch — per image of the largest batch it has run: the
// quantized-input staging tensor and a per-node activation ring, keyed
// by the compiled kernel's shapes. A Scratch is bound to one kernel at a
// time (re-binding on a kernel change is automatic) and must never be
// shared by concurrent runs: the fleet gives each board's worker its own
// arena and serializes every use under the member lock.
//
// Ownership/lifetime rules: every buffer a Scratch hands the executor —
// including the Results (and their Probs tensors) a run returns — is
// valid only until the next run on the same Scratch. Callers that need a
// result to outlive the next inference must copy it out (or pass a nil
// Scratch, which allocates fresh).
type Scratch struct {
	kernel *Kernel
	// nodes caches the kernel's topological node list (Graph.Nodes
	// copies on every call; the hot path reads it read-only every image).
	nodes []nn.Node

	inQ  quant.QTensor    // quantized input staging
	in   *quant.QTensor   // the run's input: &inQ, or a replayed trace's codes
	acts []quant.QTensor  // per-node activation ring (backing storage)
	refs []*quant.QTensor // per-run activation table (reset every run)
	accs [][]int32        // per-node conv/FC accumulators a tracing pass stages

	probs  *tensor.Tensor // host-side float staging (softmax output)
	logits *tensor.Tensor // host-side float staging (softmax input)
	final  *tensor.Tensor // the run's host-side output (set by softmax)

	concatIns []*quant.QTensor // reused Concat input table

	// fuseReLU[i] >= 0 marks a conv/FC node whose sole consumer is that
	// ReLU node: the epilogue applies ReLU in the GEMM output pass and the
	// ReLU node aliases the producer's activation.
	fuseReLU []nn.NodeID

	// batch is the pass-level state: per-image sub-arenas, per-executor
	// stacked GEMM buffers, and the pass's weight-restore records. Nil
	// until the first run on this Scratch; sized by the largest batch it
	// has run.
	batch *batchArena
	// oneImg/oneRng stage RunWith's batch of one, so the governor's
	// per-canary-image calls allocate nothing.
	oneImg [1]*tensor.Tensor
	oneRng [1]*rand.Rand
}

// NewScratch returns an empty arena; it sizes itself to the first kernel
// it runs.
func NewScratch() *Scratch { return &Scratch{} }

// bind readies the arena for one run of kernel k, recompiling the
// per-node tables when the kernel changed since the last run.
func (s *Scratch) bind(k *Kernel) {
	if s.kernel != k {
		s.kernel = k
		s.nodes = k.Graph.Nodes()
		n := len(s.nodes)
		s.acts = make([]quant.QTensor, n)
		s.refs = make([]*quant.QTensor, n)
		s.accs = make([][]int32, n)
		s.fuseReLU = fuseTable(k)
	}
	for i := range s.refs {
		s.refs[i] = nil
	}
	s.in = &s.inQ
	s.final = nil
}

// act returns node i's reusable activation tensor.
func (s *Scratch) act(i int) *quant.QTensor { return &s.acts[i] }

// fetch resolves a node input: the quantized input image for InputID,
// otherwise the producing node's staged activation.
func (s *Scratch) fetch(id nn.NodeID) (*quant.QTensor, error) {
	var x *quant.QTensor
	switch {
	case id == nn.InputID:
		x = s.in
	case int(id) < len(s.refs):
		x = s.refs[id]
	}
	if x == nil {
		return nil, fmt.Errorf("dpu: missing activation for node %d", id)
	}
	return x, nil
}

// floatStage returns a reusable float tensor of size n (dims [n]).
func floatStage(slot **tensor.Tensor, n int) *tensor.Tensor {
	if *slot == nil || (*slot).Size() != n {
		*slot = tensor.New(n)
	}
	return *slot
}

// fuseTable finds conv/FC nodes whose requantize epilogue can absorb a
// downstream ReLU: the ReLU must be the node's sole consumer and the node
// must not itself be the graph output. ReLU on an int8 code stream merely
// clamps negatives to zero, so relu(requantize(acc)) applied in the
// epilogue is bit-exact with the two-pass reference.
func fuseTable(k *Kernel) []nn.NodeID {
	nodes := k.Graph.Nodes()
	consumers := make([]int, len(nodes))
	sole := make([]nn.NodeID, len(nodes))
	for _, nd := range nodes {
		for _, id := range nd.Inputs {
			if id >= 0 {
				consumers[id]++
				sole[id] = nd.ID
			}
		}
	}
	fuse := make([]nn.NodeID, len(nodes))
	for i := range fuse {
		fuse[i] = -1
	}
	out := k.Graph.Output()
	for i, nd := range nodes {
		switch nd.Op.(type) {
		case *nn.Conv2D, *nn.Dense:
			if nd.ID == out || consumers[i] != 1 {
				continue
			}
			if _, ok := nodes[sole[i]].Op.(nn.ReLU); ok {
				fuse[i] = sole[i]
			}
		}
	}
	return fuse
}

// concatTable returns a reused slice for n concat inputs.
func (s *Scratch) concatTable(n int) []*quant.QTensor {
	if cap(s.concatIns) < n {
		s.concatIns = make([]*quant.QTensor, n)
	}
	return s.concatIns[:n]
}

package dpu

import (
	"fpgauv/internal/nn"
	"fpgauv/internal/quant"
)

// Trace is one image's golden run, recorded by TraceBatch: every conv/FC
// accumulator block in one int32 slab, the activations a replay can read
// in one int8 slab, and the output; the tensors are views into the slabs.
// A Trace is immutable once recorded — passes replaying it (RunBatch)
// read it and copy out of it, never write it — so one trace serves any
// number of passes, concurrently.
type Trace struct {
	views []quant.QTensor // at id+1 (0: the input); Data nil where no replay reads it
	accs  [][]int32       // per conv/FC node
	probs []float32
	pred  int
	i8    []int8
	i32   []int32
}

// Pred is the image's fault-free prediction.
func (tr *Trace) Pred() int { return tr.pred }

// Bytes is the trace's slab footprint: the bytes of the activations it
// keeps plus four per conv/FC output.
func (tr *Trace) Bytes() int64 { return int64(len(tr.i8)) + 4*int64(len(tr.i32)) }

// act returns the traced activation of node id (nn.InputID: the input
// codes), or nil where the trace keeps none.
func (tr *Trace) act(id nn.NodeID) *quant.QTensor {
	if v := &tr.views[id+1]; v.Data != nil {
		return v
	}
	return nil
}

// replayReads marks, at id+1, the activations a replaying pass can read.
// An image leaves its trace only at a weight node and computes everything
// itself from then on, so it reads a traced activation only when it left
// after the producer and before a consumer — when a weight node lies
// strictly between the two. A chain reads none; a skip connection or a
// parallel branch reads the ones it spans.
func replayReads(nodes []nn.Node) []bool {
	after := make([]int, len(nodes)+1) // after[p+1]: the first weight node past p
	next := len(nodes)
	for i := len(nodes) - 1; i >= 0; i-- {
		after[i+1] = next
		switch nodes[i].Op.(type) {
		case *nn.Conv2D, *nn.Dense:
			next = i
		}
	}
	after[0] = next
	reads := make([]bool, len(nodes)+1)
	for c, nd := range nodes {
		for _, p := range nd.Inputs {
			reads[p+1] = reads[p+1] || after[p+1] < c
		}
	}
	return reads
}

// record copies sub-arena s's finished fault-free pass — its input and
// activation table, the accumulator blocks the pass staged in s.accs —
// and result res into a new Trace.
func record(s *Scratch, res *Result) *Trace {
	reads := replayReads(s.nodes)
	src := append([]*quant.QTensor{&s.inQ}, s.refs...)
	var n8, n32, nDims int
	for i, q := range src {
		if reads[i] {
			n8 += len(q.Data)
		}
		nDims += len(q.Dims)
	}
	for _, a := range s.accs {
		n32 += len(a)
	}
	tr := &Trace{
		views: make([]quant.QTensor, len(src)),
		accs:  make([][]int32, len(s.accs)),
		probs: append([]float32(nil), res.Probs.Data()...),
		pred:  res.Pred,
		i8:    make([]int8, 0, n8),
		i32:   make([]int32, 0, n32),
	}
	dims := make([]int, 0, nDims)
	for i, q := range src {
		tr.views[i] = quant.QTensor{Dims: appendView(&dims, q.Dims), Scale: q.Scale, Bits: q.Bits}
		if reads[i] {
			tr.views[i].Data = appendView(&tr.i8, q.Data)
		}
	}
	for i, a := range s.accs {
		if len(a) > 0 {
			tr.accs[i] = appendView(&tr.i32, a)
		}
	}
	return tr
}

// appendView appends src to a slab sized never to reallocate and returns
// the appended part, capped so it cannot grow into its neighbour.
func appendView[T int8 | int32 | int](slab *[]T, src []T) []T {
	lo := len(*slab)
	*slab = append(*slab, src...)
	return (*slab)[lo:len(*slab):len(*slab)]
}

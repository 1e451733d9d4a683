package nn

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"fpgauv/internal/tensor"
)

// eachGraph is a small branching graph touching conv, pooling, add,
// concat and a dense head, so every op's Forward runs concurrently.
func eachGraph() *Graph {
	rng := rand.New(rand.NewSource(3))
	g := NewGraph(Shape{C: 3, H: 8, W: 6})
	c1 := g.Add("c1", NewConv2D(rng, 3, 4, 3, 1, 1))
	r1 := g.Add("r1", ReLU{}, c1)
	c2 := g.Add("c2", NewConv2D(rng, 4, 4, 3, 1, 1), r1)
	sum := g.Add("add", Add{}, r1, c2)
	c3 := g.Add("c3", NewConv2D(rng, 3, 2, 5, 2, 2), InputID)
	p := g.Add("pool", &Pool2D{Kind: MaxPool, Kernel: 2, Stride: 2}, sum)
	cat := g.Add("cat", Concat{}, p, c3)
	f := g.Add("flat", Flatten{}, cat)
	s, _ := g.NodeShape(f)
	g.Add("fc", NewDense(rng, s.Elems(), 5), f)
	return g
}

// TestForwardEachMatchesSequential holds the fan-out to the in-order
// ForwardAll loop: every node's output bits for every input, each
// called exactly once per input.
func TestForwardEachMatchesSequential(t *testing.T) {
	g := eachGraph()
	rng := rand.New(rand.NewSource(9))
	inputs := make([]*tensor.Tensor, 13)
	for i := range inputs {
		inputs[i] = tensor.New(3, 8, 6)
		inputs[i].FillRandn(rng, 1)
	}
	got := make([][]*tensor.Tensor, len(inputs))
	var calls atomic.Int64
	if err := g.ForwardEach(inputs, func(i int, outs []*tensor.Tensor) {
		calls.Add(1)
		got[i] = outs
	}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != int64(len(inputs)) {
		t.Fatalf("each called %d times for %d inputs", calls.Load(), len(inputs))
	}
	for i, x := range inputs {
		want, err := g.ForwardAll(x)
		if err != nil {
			t.Fatal(err)
		}
		for n := range want {
			w, o := want[n].Data(), got[i][n].Data()
			for j := range w {
				if math.Float32bits(w[j]) != math.Float32bits(o[j]) {
					t.Fatalf("input %d node %d elem %d: %v, sequential %v", i, n, j, o[j], w[j])
				}
			}
		}
	}
	if err := g.ForwardEach(nil, func(int, []*tensor.Tensor) { t.Fatal("each on no inputs") }); err != nil {
		t.Fatal(err)
	}
}

// TestForwardEachLowestIndexError: with several inputs failing (each on
// a different channel count, so each error reads differently), the
// fan-out reports the error of the lowest failing index — the one the
// sequential loop stops at — and never hands a failed input to each.
func TestForwardEachLowestIndexError(t *testing.T) {
	g := eachGraph()
	inputs := make([]*tensor.Tensor, 12)
	for i := range inputs {
		inputs[i] = tensor.New(3, 8, 6)
	}
	bad := map[int]bool{4: true, 7: true, 10: true}
	for i := range bad {
		inputs[i] = tensor.New(i, 8, 6)
	}
	_, want := g.ForwardAll(inputs[4])
	if want == nil {
		t.Fatal("malformed input accepted")
	}
	for rep := 0; rep < 20; rep++ {
		err := g.ForwardEach(inputs, func(i int, _ []*tensor.Tensor) {
			if bad[i] {
				t.Errorf("each called for failed input %d", i)
			}
		})
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("error %v, want %v", err, want)
		}
	}
}

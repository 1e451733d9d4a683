package nn

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"fpgauv/internal/tensor"
)

// NodeID identifies a node in a Graph.
type NodeID int

// InputID is the pseudo-node representing the graph input.
const InputID NodeID = -1

// Node is one operator instance in the DAG.
type Node struct {
	ID     NodeID
	Label  string
	Op     Op
	Inputs []NodeID
}

// Graph is a single-input, single-output operator DAG built in topological
// order: a node may only consume the graph input or earlier nodes.
type Graph struct {
	inShape Shape
	nodes   []Node
	output  NodeID
	shapes  []Shape // per-node output shapes, computed on Add
}

// NewGraph starts a graph for the given input shape.
func NewGraph(input Shape) *Graph {
	return &Graph{inShape: input, output: InputID}
}

// InputShape returns the graph's input shape.
func (g *Graph) InputShape() Shape { return g.inShape }

// Add appends an operator consuming the given inputs (InputID for the
// graph input) and returns its node id. The output defaults to the last
// node added. Add panics on shape errors: graphs are constructed by
// model-zoo code where a malformed architecture is a programming bug.
func (g *Graph) Add(label string, op Op, inputs ...NodeID) NodeID {
	if len(inputs) == 0 {
		if len(g.nodes) == 0 {
			inputs = []NodeID{InputID}
		} else {
			inputs = []NodeID{NodeID(len(g.nodes) - 1)}
		}
	}
	inShapes := make([]Shape, len(inputs))
	for i, id := range inputs {
		s, err := g.shapeAt(id)
		if err != nil {
			panic(fmt.Sprintf("nn: graph %q input %d: %v", label, id, err))
		}
		inShapes[i] = s
	}
	out, err := op.OutShape(inShapes)
	if err != nil {
		panic(fmt.Sprintf("nn: graph node %q: %v", label, err))
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Label: label, Op: op, Inputs: append([]NodeID(nil), inputs...)})
	g.shapes = append(g.shapes, out)
	g.output = id
	return id
}

// shapeAt resolves a node's output shape.
func (g *Graph) shapeAt(id NodeID) (Shape, error) {
	if id == InputID {
		return g.inShape, nil
	}
	if id < 0 || int(id) >= len(g.nodes) {
		return Shape{}, fmt.Errorf("unknown node %d", id)
	}
	return g.shapes[id], nil
}

// SetOutput overrides the output node.
func (g *Graph) SetOutput(id NodeID) error {
	if _, err := g.shapeAt(id); err != nil {
		return err
	}
	g.output = id
	return nil
}

// Output returns the output node id.
func (g *Graph) Output() NodeID { return g.output }

// Nodes returns the graph nodes in topological order.
func (g *Graph) Nodes() []Node {
	out := make([]Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// NodeShape returns the output shape of a node.
func (g *Graph) NodeShape(id NodeID) (Shape, error) { return g.shapeAt(id) }

// OutputShape returns the shape of the graph output.
func (g *Graph) OutputShape() Shape {
	s, _ := g.shapeAt(g.output)
	return s
}

// InputShapesOf returns the input shapes feeding a node.
func (g *Graph) InputShapesOf(n Node) []Shape {
	shapes := make([]Shape, len(n.Inputs))
	for i, id := range n.Inputs {
		shapes[i], _ = g.shapeAt(id)
	}
	return shapes
}

// TotalParams sums learnable parameters over all nodes.
func (g *Graph) TotalParams() int64 {
	var total int64
	for _, n := range g.nodes {
		total += n.Op.ParamCount()
	}
	return total
}

// TotalMACs sums multiply-accumulates for one inference.
func (g *Graph) TotalMACs() int64 {
	var total int64
	for _, n := range g.nodes {
		total += n.Op.MACs(g.InputShapesOf(n))
	}
	return total
}

// WeightLayers counts conv and fully-connected layers — the layer-count
// convention of the paper's Table 1.
func (g *Graph) WeightLayers() int {
	count := 0
	for _, n := range g.nodes {
		switch n.Op.(type) {
		case *Conv2D, *Dense:
			count++
		}
	}
	return count
}

// Forward runs the float32 reference path on one input.
func (g *Graph) Forward(input *tensor.Tensor) (*tensor.Tensor, error) {
	results := make([]*tensor.Tensor, len(g.nodes))
	fetch := func(id NodeID) (*tensor.Tensor, error) {
		if id == InputID {
			return input, nil
		}
		if id < 0 || int(id) >= len(results) || results[id] == nil {
			return nil, fmt.Errorf("nn: missing result for node %d", id)
		}
		return results[id], nil
	}
	for i, n := range g.nodes {
		ins := make([]*tensor.Tensor, len(n.Inputs))
		for j, id := range n.Inputs {
			x, err := fetch(id)
			if err != nil {
				return nil, err
			}
			ins[j] = x
		}
		out, err := n.Op.Forward(ins)
		if err != nil {
			return nil, fmt.Errorf("nn: node %q: %w", n.Label, err)
		}
		results[i] = out
	}
	return fetch(g.output)
}

// ForwardAll runs the float32 reference path and returns every node's
// output (indexed by NodeID). The quantization calibrator uses this to
// observe per-node activation ranges.
func (g *Graph) ForwardAll(input *tensor.Tensor) ([]*tensor.Tensor, error) {
	results := make([]*tensor.Tensor, len(g.nodes))
	for i, n := range g.nodes {
		ins := make([]*tensor.Tensor, len(n.Inputs))
		for j, id := range n.Inputs {
			if id == InputID {
				ins[j] = input
				continue
			}
			if id < 0 || int(id) >= i || results[id] == nil {
				return nil, fmt.Errorf("nn: node %q consumes unavailable node %d", n.Label, id)
			}
			ins[j] = results[id]
		}
		out, err := n.Op.Forward(ins)
		if err != nil {
			return nil, fmt.Errorf("nn: node %q: %w", n.Label, err)
		}
		results[i] = out
	}
	return results, nil
}

// ForwardEach runs ForwardAll on every input, claimed from a shared
// cursor by at most min(GOMAXPROCS, len(inputs)) goroutines, and hands
// input i's node outputs to each(i, outs) on the goroutine that computed
// them, dropping them when each returns — so peak memory is one image's
// activations per goroutine. each may only write state owned by index
// i; callers fold those per-index results in index order afterwards,
// which makes the outcome the sequential loop's at any width. The error
// is the lowest-index failure, as that loop would report it.
func (g *Graph) ForwardEach(inputs []*tensor.Tensor, each func(i int, outs []*tensor.Tensor)) error {
	errs := make([]error, len(inputs))
	Parallel(len(inputs), func(i int) {
		outs, err := g.ForwardAll(inputs[i])
		if err != nil {
			errs[i] = err
			return
		}
		each(i, outs)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Parallel calls f(i) once for every i in [0, n), each index claimed
// from a shared cursor by at most min(GOMAXPROCS, n) goroutines, the
// caller among them, and returns when every call has. f may only write
// state owned by index i.
func Parallel(n int, f func(i int)) {
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			f(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// Validate re-checks all node shapes; useful after mutating weights in
// place (pruning, quantization folding).
func (g *Graph) Validate() error {
	for i, n := range g.nodes {
		out, err := n.Op.OutShape(g.InputShapesOf(n))
		if err != nil {
			return fmt.Errorf("nn: node %d %q: %w", i, n.Label, err)
		}
		if out != g.shapes[i] {
			return fmt.Errorf("nn: node %d %q shape drifted: %v vs %v", i, n.Label, out, g.shapes[i])
		}
	}
	return nil
}

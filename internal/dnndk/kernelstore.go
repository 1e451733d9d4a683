package dnndk

import (
	"slices"

	"fpgauv/internal/dpu"
	"fpgauv/internal/models"
	"fpgauv/internal/quant"
)

// A compiled kernel is a pure function of the benchmark, its preset and
// the quantize options: the float model is built from seeded weights and
// DECENT's calibration is deterministic. So, as on real DNNDK, where a
// network is compiled once into an ELF that every board then loads,
// compiled kernels live in one process-wide store: each is compiled once,
// by the first deployment that asks for it, and every deployment of the
// same key loads its own copy of it (instance). A task made by Deploy
// holds one reference; Unload, or the garbage collector for a task
// dropped without one, releases it, and the last release frees the entry.

// compileKey identifies one compiled kernel.
type compileKey struct {
	bench  string
	preset models.Preset
	opts   QuantizeOptions
}

// compiled is what every deployment of one key shares read-only: the
// float benchmark (its graph pruned and BN-folded by Quantize) and the
// kernel that instance copies.
type compiled struct {
	bench  *models.Benchmark
	kernel *dpu.Kernel
}

// kernelEntry is one compiled kernel in the store.
type kernelEntry = shared[compileKey, compiled]

var kernelStore = newSharedStore[compileKey, compiled]()

// compile builds the float model and runs DECENT on it.
func compile(key compileKey) (compiled, error) {
	bench, err := models.New(key.bench, key.preset)
	if err != nil {
		return compiled{}, err
	}
	k, err := Quantize(bench, key.opts)
	if err != nil {
		return compiled{}, err
	}
	return compiled{bench: bench, kernel: k}, nil
}

// instance returns one deployment's kernel. Everything a pass writes is
// its own: the Nodes slice, and the bytes of every BRAM-resident image —
// WQ, and the packed image of a sparse kernel — which fault injection,
// the SECDED path, restore and scrubbing write in place (the reference
// kernels flip WQ even on a sparse kernel), while the boards of a pool
// run passes at the same time. VulnScale, which mitigation scales for
// the duration of a run, is a field of the copy. The graph, the scales,
// BiasQ, the sparse bitmaps and block offsets, and Program are shared.
func (c compiled) instance() *dpu.Kernel {
	k := *c.kernel
	k.Nodes = slices.Clone(k.Nodes)
	for i := range k.Nodes {
		kn := &k.Nodes[i]
		if kn.WQ != nil {
			kn.WQ = ownBytes(kn.WQ)
		}
		if kn.SW != nil {
			sw := *kn.SW
			sw.Packed = ownBytes(sw.Packed)
			kn.SW = &sw
		}
	}
	return &k
}

// ownBytes copies a weight image with its own Data.
func ownBytes(q *quant.QTensor) *quant.QTensor {
	c := *q
	c.Data = slices.Clone(q.Data)
	return &c
}

// KernelStoreHeld reports how many store entries hold the named
// benchmark compiled at the given precision, and the references they
// hold in all.
func KernelStoreHeld(benchmark string, bits int) (entries, refs int) {
	return kernelStore.held(func(key compileKey) bool {
		return key.bench == benchmark && key.opts.Bits == bits
	})
}

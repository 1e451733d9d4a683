package dnndk

import (
	"fpgauv/internal/models"
)

// DeployOptions configures DeployBenchmark (the single- and multi-board
// deployment protocol).
type DeployOptions struct {
	// Tiny selects the test-scale model zoo (default: the Small preset).
	Tiny bool
	// Bits is the quantization precision (default 8; the paper's §6.1
	// evaluates 8..4).
	Bits int
	// Sparsity applies DECENT magnitude pruning before quantization
	// (§6.2).
	Sparsity float64
	// PruneBlocks selects block-structured pruning matched to the
	// sparse backend's skip geometry (see QuantizeOptions.PruneBlocks).
	PruneBlocks bool
	// Backend selects the compute backend ("" / auto / dense / sparse;
	// see QuantizeOptions.Backend).
	Backend string
	// Images is the evaluation-set size (default 64).
	Images int
	// Seed derives the dataset and label planting (default 1).
	Seed int64
}

// Deployed bundles a benchmark compiled, loaded and labeled on a runtime.
type Deployed struct {
	// Bench is shared read-only by every deployment of the same
	// benchmark, preset and quantize options (see kernelstore.go).
	Bench *Benchmark
	Task  *Task
	Ds    *models.Dataset
	// Seed is the effective deployment seed after defaulting.
	Seed int64
}

// Benchmark aliases the model-zoo benchmark for Deployed's fields.
type Benchmark = models.Benchmark

// LabelSeed derives the label-planting seed from a deployment seed; every
// (re-)deployment of the same seed must plant identical labels.
func LabelSeed(seed int64) int64 { return seed ^ 0x1ab }

// DeployBenchmark quantizes and loads one of the Table 1 benchmarks on
// the runtime and plants ground-truth labels so the fault-free accuracy
// equals the paper's "our design @Vnom" value. It is the one deployment
// protocol shared by the single-platform API and the fleet.
func DeployBenchmark(rt *Runtime, benchmark string, opts DeployOptions) (*Deployed, error) {
	preset := models.Small
	if opts.Tiny {
		preset = models.Tiny
	}
	if opts.Images <= 0 {
		opts.Images = 64
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	qopts := DefaultQuantizeOptions()
	if opts.Bits != 0 {
		qopts.Bits = opts.Bits
	}
	qopts.Sparsity = opts.Sparsity
	qopts.PruneBlocks = opts.PruneBlocks
	qopts.Backend = opts.Backend
	return Deploy(rt, benchmark, preset, qopts, opts.Images, opts.Seed)
}

// Deploy is DeployBenchmark with the preset and quantize options given
// in full and no defaulting: it loads the benchmark compiled under qopts
// (from the process-wide kernel store, compiled there on a miss) and
// plants labels on an images-long dataset derived from seed.
func Deploy(rt *Runtime, benchmark string, preset models.Preset, qopts QuantizeOptions, images int, seed int64) (*Deployed, error) {
	key := compileKey{bench: benchmark, preset: preset, opts: qopts}
	e, err := kernelStore.acquire(key, func() (compiled, error) { return compile(key) })
	if err != nil {
		return nil, err
	}
	task, err := rt.LoadKernel(e.val.instance())
	if err != nil {
		e.release()
		return nil, err
	}
	task.compiled = e
	bench := e.val.bench
	ds := bench.MakeDataset(images, seed)
	if err := task.PlantLabels(ds, bench.TargetAccPct, LabelSeed(seed)); err != nil {
		_ = task.Unload()
		return nil, err
	}
	return &Deployed{Bench: bench, Task: task, Ds: ds, Seed: seed}, nil
}

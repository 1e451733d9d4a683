// Package dpu models the Xilinx Deep-learning Processing Unit (DPU) soft
// core the paper maps its CNNs onto: the B-series architecture table, the
// compiled-kernel representation, a compute/memory performance model
// calibrated to the paper's Table 2, and the execution engine that runs
// quantized networks with voltage-dependent fault injection sourced from
// the fabric model.
package dpu

import (
	"fmt"

	"fpgauv/internal/fabric"
)

// Config describes one DPU core variant.
type Config struct {
	// Arch is the variant name (e.g. "B4096").
	Arch string
	// OpsPerCycle is the peak operations per DPU cycle (2 ops per MAC,
	// DSPs double-pumped at 2x the DPU clock).
	OpsPerCycle int
	// DefaultFreqMHz and DSPFreqMHz are the shipped clock settings.
	DefaultFreqMHz float64
	DSPFreqMHz     float64
	// Util is the per-core fabric utilization (paper §3.1 for B4096:
	// 24.3% BRAM, 25.6% DSP).
	Util fabric.Utilization
	// GemmWorkers tunes the process-wide GEMM tile worker pool that the
	// compute engine's macro-tiles and the batch executor's lanes
	// share (quant.SetWorkers): > 0 pins the pool width, 0 leaves
	// the current setting (GOMAXPROCS-aware automatic by default)
	// untouched. The pool is one per process, so the last DPU programmed
	// with a non-zero value wins.
	GemmWorkers int
	// Backend selects the compute backend kernels deploy on ("" or
	// BackendAuto: per-kernel selection by realized block sparsity at
	// quantization time; BackendDense / BackendSparse force one). The
	// DPU itself executes whatever backend each kernel was compiled
	// for — this field is deployment plumbing, threaded through the
	// fleet to the DNNDK compile step.
	Backend string
}

// B4096 returns the largest DPU variant, the paper's configuration.
func B4096() Config {
	return Config{
		Arch:           "B4096",
		OpsPerCycle:    4096,
		DefaultFreqMHz: 333,
		DSPFreqMHz:     666,
		Util:           fabric.Utilization{LUTs: 0.181, DSPs: 0.256, BRAMs: 0.243},
	}
}

// Variants returns the DPU architecture table (PG338) from smallest to
// largest; utilization scales roughly with peak ops.
func Variants() []Config {
	mk := func(arch string, ops int, lut, dsp, bram float64) Config {
		return Config{
			Arch:           arch,
			OpsPerCycle:    ops,
			DefaultFreqMHz: 333,
			DSPFreqMHz:     666,
			Util:           fabric.Utilization{LUTs: lut, DSPs: dsp, BRAMs: bram},
		}
	}
	return []Config{
		mk("B512", 512, 0.045, 0.038, 0.041),
		mk("B800", 800, 0.058, 0.055, 0.055),
		mk("B1024", 1024, 0.072, 0.070, 0.068),
		mk("B1600", 1600, 0.098, 0.106, 0.099),
		mk("B2304", 2304, 0.124, 0.152, 0.141),
		mk("B3136", 3136, 0.151, 0.203, 0.190),
		B4096(),
	}
}

// VariantByName looks up a DPU variant.
func VariantByName(arch string) (Config, error) {
	for _, v := range Variants() {
		if v.Arch == arch {
			return v, nil
		}
	}
	return Config{}, fmt.Errorf("dpu: unknown variant %q", arch)
}

// MaxCores returns how many cores of this variant fit the fabric (the
// paper: "a maximum of three B4096 DPUs can be used").
func (c Config) MaxCores() int {
	n := 0
	total := fabric.Utilization{}
	for {
		next := total.Add(c.Util)
		if next.Validate() != nil {
			return n
		}
		total = next
		n++
	}
}

// PeakGOPs returns the peak throughput of n cores at the given clock.
func (c Config) PeakGOPs(nCores int, freqMHz float64) float64 {
	return float64(c.OpsPerCycle) * float64(nCores) * freqMHz * 1e6 / 1e9
}

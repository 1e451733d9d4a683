package fpgauv_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"time"

	"fpgauv"
	"fpgauv/internal/board"
	"fpgauv/internal/dnndk"
	"fpgauv/internal/dpu"
	"fpgauv/internal/ecc"
	"fpgauv/internal/exp"
	"fpgauv/internal/fabric"
	"fpgauv/internal/models"
	"fpgauv/internal/pmbus"
	"fpgauv/internal/power"
	"fpgauv/internal/quant"
	"fpgauv/internal/tensor"
)

// benchOptions is the reduced protocol used by the per-figure benches:
// single platform, tiny preset, small evaluation sets. The full protocol
// lives in cmd/uvolt-repro.
func benchOptions() exp.Options {
	o := exp.QuickOptions()
	o.Images = 16
	o.Repeats = 2
	o.Samples = []board.SampleID{board.SampleB}
	return o
}

// runGenerator executes one table/figure generator per iteration.
func runGenerator(b *testing.B, id string, opts exp.Options) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		g, err := exp.GeneratorByID(id)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.Run(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (benchmarks + accuracy @Vnom).
func BenchmarkTable1(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"VGGNet", "GoogleNet"}
	runGenerator(b, "table1", o)
}

// BenchmarkPowerBreakdownSec41 regenerates the §4.1 power breakdown and
// reports the measured cross-benchmark average (paper: 12.59 W).
func BenchmarkPowerBreakdownSec41(b *testing.B) {
	o := benchOptions()
	var avg float64
	for i := 0; i < b.N; i++ {
		tab, err := exp.PowerBreakdownSec41(o)
		if err != nil {
			b.Fatal(err)
		}
		last := tab.Rows[len(tab.Rows)-1]
		avg, _ = strconv.ParseFloat(last[3], 64)
	}
	b.ReportMetric(avg, "W_at_Vnom")
}

// BenchmarkFig3 regenerates the voltage-region characterization.
func BenchmarkFig3(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"VGGNet"}
	runGenerator(b, "fig3", o)
}

// BenchmarkFig4 regenerates the overall voltage-behaviour sweep.
func BenchmarkFig4(b *testing.B) {
	runGenerator(b, "fig4", benchOptions())
}

// BenchmarkFig5 regenerates the power-efficiency gains and reports the
// measured Vmin/Vcrash gains (paper: 2.6x / ≈3.7x).
func BenchmarkFig5(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"VGGNet"}
	var gainMin, gainCrash float64
	for i := 0; i < b.N; i++ {
		tab, err := exp.Fig5(o)
		if err != nil {
			b.Fatal(err)
		}
		row := tab.Rows[0]
		gainMin, _ = strconv.ParseFloat(row[4], 64)
		gainCrash, _ = strconv.ParseFloat(row[5], 64)
	}
	b.ReportMetric(gainMin, "gain_at_Vmin")
	b.ReportMetric(gainCrash, "gain_at_Vcrash")
}

// BenchmarkFig6 regenerates the per-benchmark accuracy-vs-voltage series.
func BenchmarkFig6(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"VGGNet", "ResNet50"}
	runGenerator(b, "fig6", o)
}

// BenchmarkTable2 regenerates the frequency-underscaling table.
func BenchmarkTable2(b *testing.B) {
	runGenerator(b, "table2", benchOptions())
}

// BenchmarkFig7 regenerates the quantization-interaction study.
func BenchmarkFig7(b *testing.B) {
	runGenerator(b, "fig7", benchOptions())
}

// BenchmarkFig8 regenerates the pruning-interaction study.
func BenchmarkFig8(b *testing.B) {
	runGenerator(b, "fig8", benchOptions())
}

// BenchmarkFig9 regenerates the temperature-vs-power study.
func BenchmarkFig9(b *testing.B) {
	runGenerator(b, "fig9", benchOptions())
}

// BenchmarkFig10 regenerates the temperature-vs-accuracy (ITD) study.
func BenchmarkFig10(b *testing.B) {
	runGenerator(b, "fig10", benchOptions())
}

// BenchmarkVariability regenerates the three-platform ΔVmin/ΔVcrash
// analysis.
func BenchmarkVariability(b *testing.B) {
	o := benchOptions()
	o.Samples = []board.SampleID{board.SampleA, board.SampleB, board.SampleC}
	o.Benchmarks = []string{"VGGNet"}
	runGenerator(b, "variability", o)
}

// BenchmarkFullReport regenerates every artifact (the uvolt-repro run).
func BenchmarkFullReport(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"VGGNet"}
	for i := 0; i < b.N; i++ {
		if err := exp.RunAll(o, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the substrate hot paths ---

// BenchmarkConv2DInt8 measures the quantized convolution kernel.
func BenchmarkConv2DInt8(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(8, 32, 32)
	x.FillRandn(rng, 1)
	w := tensor.New(16, 8, 3, 3)
	w.FillRandn(rng, 0.2)
	xq, _ := quant.Quantize(x, 8)
	wq, _ := quant.Quantize(w, 8)
	bias := make([]int32, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := quant.Conv2DInt8(xq, wq, bias, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(x.Size()))
}

// BenchmarkConvKernels compares the naive direct convolution against the
// in-place GEMM lowering (a one-image batch) on a conv-dominated kernel
// (64×32×3×3 over 32×32: ≈19M MACs, the regime the serving hot path
// lives in). The engine's acceptance gate is gemm ≥ 3× naive. The tile
// worker pool stays in automatic mode, so -cpu 1,2,4 sweeps the gemm
// arm's pool width (the workers metric records it).
func BenchmarkConvKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(32, 32, 32)
	x.FillRandn(rng, 1)
	w := tensor.New(64, 32, 3, 3)
	w.FillRandn(rng, 0.2)
	xq, _ := quant.Quantize(x, 8)
	wq, _ := quant.Quantize(w, 8)
	bias := make([]int32, 64)
	// One op is 64 filters × 288 taps × 1024 pixels; the gemm arm's
	// figure is the whole lowering, its padded-frame copy included.
	gmacs := func(b *testing.B) {
		b.ReportMetric(float64(b.N)*64*288*1024/b.Elapsed().Seconds()/1e9, "GMAC/s")
	}
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := quant.Conv2DInt8(xq, wq, bias, 1, 1); err != nil {
				b.Fatal(err)
			}
		}
		gmacs(b)
	})
	b.Run("gemm", func(b *testing.B) {
		xs := []*quant.QTensor{xq}
		var col []int8
		var acc []int32
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := quant.Conv2DInt8GemmBatch(xs, wq, bias, 1, 1, &col, &acc); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(quant.Workers()), "workers")
		gmacs(b)
	})
}

// BenchmarkRequantize measures the fused GEMM epilogue on one conv
// layer's accumulators (64×1024, about half of them negative), with and
// without ReLU: the branch-free loop costs the same either way.
func BenchmarkRequantize(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	acc := make([]int32, 64*1024)
	for i := range acc {
		acc[i] = int32(rng.Intn(1<<17) - 1<<16)
	}
	var dst quant.QTensor
	for _, relu := range []bool{false, true} {
		b.Run(fmt.Sprintf("relu=%v", relu), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := quant.RequantizeInto(&dst, acc, 0.003, 0.07, 8, relu, 64, 32, 32); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N)/float64(len(acc)), "ns/elem")
		})
	}
}

// BenchmarkGemmScaling measures the tiled GEMM engine's parallel
// scaling on the batched multi-RHS conv lowering (8 images of
// 64×32×3×3 over 32×32 stacked into one wide GEMM; the one-image shape
// is BenchmarkConvKernels/gemm), plus the FC lowering at batch 1. The
// tile worker pool is left in its
// GOMAXPROCS-aware automatic mode, so running with -cpu 1,2,4 sweeps
// the pool width; the workers metric records the effective width per
// run.
func BenchmarkGemmScaling(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w := tensor.New(64, 32, 3, 3)
	w.FillRandn(rng, 0.2)
	wq, _ := quant.Quantize(w, 8)
	bias := make([]int32, 64)
	const batch = 8
	xqs := make([]*quant.QTensor, batch)
	for i := range xqs {
		x := tensor.New(32, 32, 32)
		x.FillRandn(rng, 1)
		xqs[i], _ = quant.Quantize(x, 8)
	}
	b.Run("conv-batch", func(b *testing.B) {
		var col []int8
		var acc []int32
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := quant.Conv2DInt8GemmBatch(xqs, wq, bias, 1, 1, &col, &acc); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(quant.Workers()), "workers")
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N)*batch/secs, "images/s")
		}
	})
	// The block kernel's unamortised case: a 512×1024 FC layer over a
	// lone image packs every weight for a single column.
	b.Run("fc-batch1", func(b *testing.B) {
		fw := tensor.New(512, 1024)
		fw.FillRandn(rng, 0.2)
		fwq, _ := quant.Quantize(fw, 8)
		fx := tensor.New(1024)
		fx.FillRandn(rng, 1)
		fxq, _ := quant.Quantize(fx, 8)
		xs := []*quant.QTensor{fxq}
		fbias := make([]int32, 512)
		var acc []int32
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := quant.DenseInt8GemmBatch(xs, fwq, fbias, &acc); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)*512*1024/b.Elapsed().Seconds()/1e9, "GMAC/s")
	})
}

// BenchmarkSparseGemm measures the block-sparse skip-zero GEMM against
// the dense tiled engine on the serving-dominant conv shape (64×32×3×3
// over 32×32, ≈19M dense MACs) across a block-sparsity sweep. Whole
// SparseBlockRows×1 skip blocks are zeroed — the geometry the
// prune→quantize→deploy pipeline produces — so the realized skip
// fraction equals the sweep point. Results are bit-exact with the dense
// kernel at every point; the acceptance gate is sparse ≥ 1.8× dense at
// 90% sparsity. The tile worker pool stays in automatic mode, so
// -cpu 1,2,4 sweeps the pool width (the workers metric records it).
func BenchmarkSparseGemm(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(32, 32, 32)
	x.FillRandn(rng, 1)
	xq, _ := quant.Quantize(x, 8)
	xs := []*quant.QTensor{xq}
	bias := make([]int32, 64)
	for _, sp := range []float64{0, 0.25, 0.5, 0.9} {
		w := tensor.New(64, 32, 3, 3)
		w.FillRandn(rng, 0.2)
		wq, _ := quant.Quantize(w, 8)
		// Zero whole skip blocks at the sweep fraction.
		zrng := rand.New(rand.NewSource(42))
		m := wq.Dims[0]
		kk := len(wq.Data) / m
		for g := 0; g*quant.SparseBlockRows < m; g++ {
			i0 := g * quant.SparseBlockRows
			for p := 0; p < kk; p++ {
				if zrng.Float64() >= sp {
					continue
				}
				for q := 0; q < quant.SparseBlockRows && i0+q < m; q++ {
					wq.Data[(i0+q)*kk+p] = 0
				}
			}
		}
		sw, err := quant.PackSparse(wq)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("dense/sp=%.2f", sp), func(b *testing.B) {
			var col []int8
			var acc []int32
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := quant.Conv2DInt8GemmBatch(xs, wq, bias, 1, 1, &col, &acc); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(quant.Workers()), "workers")
		})
		b.Run(fmt.Sprintf("sparse/sp=%.2f", sp), func(b *testing.B) {
			var col []int8
			var acc []int32
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := quant.Conv2DInt8GemmBatchSparse(xs, sw, bias, 1, 1, &col, &acc); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(quant.Workers()), "workers")
			b.ReportMetric(sw.BlockSparsity(), "block_sparsity")
		})
	}
}

// BenchmarkClassifyPruned is BenchmarkClassifySteadyState through the
// prune→quantize→deploy pipeline: the same VGGNet-tiny evaluation pass
// in the critical region (565 mV — above the pruned configuration's
// raised ≈556 mV Vcrash, faults live), dense baseline versus
// block-pruned at 50% and 90% — where auto backend selection compiles
// the kernel for the sparse skip-zero engine and the packed image
// halves the BRAM footprint. The throughput gap between the dense and
// pruned runs is the end-to-end serving win of the sparse backend.
func BenchmarkClassifyPruned(b *testing.B) {
	run := func(b *testing.B, sparsity float64) {
		brd := board.MustNew(board.SampleB)
		rt, err := dnndk.NewRuntime(brd, 3)
		if err != nil {
			b.Fatal(err)
		}
		bench, _ := models.New("VGGNet", models.Tiny)
		qopts := dnndk.DefaultQuantizeOptions()
		qopts.Sparsity = sparsity
		qopts.PruneBlocks = sparsity > 0
		k, err := dnndk.Quantize(bench, qopts)
		if err != nil {
			b.Fatal(err)
		}
		task, err := rt.LoadKernel(k)
		if err != nil {
			b.Fatal(err)
		}
		ds := bench.MakeDataset(16, 1)
		if err := task.PlantLabels(ds, bench.TargetAccPct, 1); err != nil {
			b.Fatal(err)
		}
		if err := pmbus.NewAdapter(brd.Bus(), board.AddrVCCINT).SetVoltageMV(565); err != nil {
			b.Fatal(err)
		}
		if sparsity > 0 && k.Backend != dpu.BackendSparse {
			b.Fatalf("pruned kernel compiled for %q, want sparse", k.BackendName())
		}
		scratch := dpu.NewScratch()
		rng := rand.New(rand.NewSource(2))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := task.ClassifyWith(scratch, ds, rng); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N)*16/secs, "images/s")
		}
	}
	b.Run("dense", func(b *testing.B) { run(b, 0) })
	b.Run("pruned=0.50", func(b *testing.B) { run(b, 0.5) })
	b.Run("pruned=0.90", func(b *testing.B) { run(b, 0.9) })
}

// BenchmarkClassifySteadyState measures a full serving-path evaluation
// pass (16 images, VGGNet tiny) at a critical-region operating point —
// the steady-state work a fleet worker performs per request. The
// gemm-arena variant is the serving configuration (per-worker Scratch,
// GEMM kernels); naive-alloc is the reference path with a transient
// arena, the allocation baseline the ≥10× allocs/op reduction is
// measured against. Run with -benchmem.
func BenchmarkClassifySteadyState(b *testing.B) {
	brd := board.MustNew(board.SampleB)
	rt, err := dnndk.NewRuntime(brd, 3)
	if err != nil {
		b.Fatal(err)
	}
	bench, _ := models.New("VGGNet", models.Tiny)
	k, err := dnndk.Quantize(bench, dnndk.DefaultQuantizeOptions())
	if err != nil {
		b.Fatal(err)
	}
	task, err := rt.LoadKernel(k)
	if err != nil {
		b.Fatal(err)
	}
	ds := bench.MakeDataset(16, 1)
	if err := task.PlantLabels(ds, bench.TargetAccPct, 1); err != nil {
		b.Fatal(err)
	}
	// Critical region: faults are live, so every pass runs the DPU
	// executor instead of the cached-reference shortcut.
	if err := pmbus.NewAdapter(brd.Bus(), board.AddrVCCINT).SetVoltageMV(550); err != nil {
		b.Fatal(err)
	}
	b.Run("gemm-arena", func(b *testing.B) {
		scratch := dpu.NewScratch()
		rng := rand.New(rand.NewSource(2))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := task.ClassifyWith(scratch, ds, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive-alloc", func(b *testing.B) {
		rt.DPU().SetReferenceKernels(true)
		defer rt.DPU().SetReferenceKernels(false)
		rng := rand.New(rand.NewSource(2))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := task.Classify(ds, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkInferBatched is the executor's batch × pool-width latency
// table (EXPERIMENTS.md, "Batch-native inference"): a fixed 16-image
// workload is pushed through Task.InferBatch in passes of 1/2/4/8/16
// images at SetWorkers 1 and 2, at 550 mV (critical region — MAC fault
// sampling live on every pass, the serving regime). A pass is cut into
// 2-image lanes that the pool's executors claim, so ns/op of batch=16
// should approach 1/width of its width-1 figure, while a pass of one or
// two images is a single lane whose GEMM macro-tiles fan out instead.
// Reports images/sec and steady-state heap allocations per image.
func BenchmarkInferBatched(b *testing.B) {
	brd := board.MustNew(board.SampleB)
	rt, err := dnndk.NewRuntime(brd, 3)
	if err != nil {
		b.Fatal(err)
	}
	bench, _ := models.New("VGGNet", models.Tiny)
	k, err := dnndk.Quantize(bench, dnndk.DefaultQuantizeOptions())
	if err != nil {
		b.Fatal(err)
	}
	task, err := rt.LoadKernel(k)
	if err != nil {
		b.Fatal(err)
	}
	const images = 16
	ds := bench.MakeDataset(images, 1)
	if err := pmbus.NewAdapter(brd.Bus(), board.AddrVCCINT).SetVoltageMV(550); err != nil {
		b.Fatal(err)
	}
	defer quant.SetWorkers(0)
	for _, bs := range []int{1, 2, 4, 8, 16} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("batch=%d/workers=%d", bs, workers), func(b *testing.B) {
				quant.SetWorkers(workers)
				scratch := dpu.NewScratch()
				master := rand.New(rand.NewSource(7))
				pass := func() {
					for lo := 0; lo < images; lo += bs {
						rngs := scratch.BatchRNGs(bs)
						for j := range rngs {
							rngs[j].Seed(master.Int63())
						}
						if _, err := task.InferBatch(scratch, ds.Inputs[lo:lo+bs], rngs); err != nil {
							b.Fatal(err)
						}
					}
				}
				pass() // warm the arena (first pass grows the buffers)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pass()
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				total := float64(b.N) * images
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(total/secs, "images/s")
				}
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/img")
			})
		}
	}
}

// BenchmarkDPUInference measures one fault-free inference — the batch
// of one through a warm Scratch, the governor's canary path — through
// the full DPU executor (VGGNet tiny).
func BenchmarkDPUInference(b *testing.B) {
	brd := board.MustNew(board.SampleB)
	rt, err := dnndk.NewRuntime(brd, 3)
	if err != nil {
		b.Fatal(err)
	}
	bench, _ := models.New("VGGNet", models.Tiny)
	k, err := dnndk.Quantize(bench, dnndk.DefaultQuantizeOptions())
	if err != nil {
		b.Fatal(err)
	}
	task, err := rt.LoadKernel(k)
	if err != nil {
		b.Fatal(err)
	}
	ds := bench.MakeDataset(4, 1)
	rng := rand.New(rand.NewSource(2))
	scratch := dpu.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := task.RunWith(scratch, ds.Inputs[i%4], rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPUInferenceWithFaults measures inference in the critical
// region with live fault sampling and injection.
func BenchmarkDPUInferenceWithFaults(b *testing.B) {
	brd := board.MustNew(board.SampleB)
	rt, err := dnndk.NewRuntime(brd, 3)
	if err != nil {
		b.Fatal(err)
	}
	bench, _ := models.New("VGGNet", models.Tiny)
	k, err := dnndk.Quantize(bench, dnndk.DefaultQuantizeOptions())
	if err != nil {
		b.Fatal(err)
	}
	task, err := rt.LoadKernel(k)
	if err != nil {
		b.Fatal(err)
	}
	if err := pmbus.NewAdapter(brd.Bus(), board.AddrVCCINT).SetVoltageMV(550); err != nil {
		b.Fatal(err)
	}
	ds := bench.MakeDataset(4, 1)
	rng := rand.New(rand.NewSource(2))
	scratch := dpu.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := task.RunWith(scratch, ds.Inputs[i%4], rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPMBusTransaction measures a voltage set + telemetry read pair.
func BenchmarkPMBusTransaction(b *testing.B) {
	brd := board.MustNew(board.SampleB)
	brd.SetWorkload(board.Workload{UtilScale: 1})
	a := pmbus.NewAdapter(brd.Bus(), board.AddrVCCINT)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.SetVoltageMV(570 + float64(i%10)); err != nil {
			b.Fatal(err)
		}
		if _, err := a.PowerW(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPowerModel measures a single operating-point evaluation.
func BenchmarkPowerModel(b *testing.B) {
	m := power.NewModel()
	op := power.DefaultOperatingPoint()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.VCCINTmV = 540 + float64(i%310)
		_ = m.Breakdown(op)
	}
}

// BenchmarkFaultSampling measures the binomial fault sampler in the
// sparse regime the executor lives in.
func BenchmarkFaultSampling(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fabric.SampleFaults(rng, 10_000_000, 1e-6)
	}
}

// BenchmarkFleetThroughput measures classified-images/sec through the
// fleet scheduler for pool sizes 1, 3 and 9 — the perf baseline future
// scheduling work is compared against. Characterizations are cached per
// silicon sample, so bring-up cost is paid once per process.
func BenchmarkFleetThroughput(b *testing.B) {
	const images = 16
	for _, boards := range []int{1, 3, 9} {
		b.Run(fmt.Sprintf("boards=%d", boards), func(b *testing.B) {
			pool, err := fpgauv.NewFleet(fpgauv.FleetConfig{
				Boards:      boards,
				Tiny:        true,
				Images:      images,
				CharRepeats: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer pool.Close()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := pool.Classify(context.Background(), fpgauv.FleetRequest{}); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N)*images/secs, "images/s")
			}
		})
	}
}

// BenchmarkGovernedFleet compares serving a hot 3-board fleet at the
// static startup points against the same fleet with the adaptive
// voltage governor running: throughput (images/s) must hold while the
// modeled energy-per-request (mJ/req, fleet power × wall time ÷
// requests) drops, because every governed board settles below its
// static point in the ITD headroom. The governor loops run live (4 ms
// cadence) underneath the traffic, probing canaries under the member
// locks.
func BenchmarkGovernedFleet(b *testing.B) {
	const images = 16
	for _, governed := range []bool{false, true} {
		name := "static"
		if governed {
			name = "governed"
		}
		b.Run(name, func(b *testing.B) {
			pool, err := fpgauv.NewFleet(fpgauv.FleetConfig{
				Boards:      3,
				Tiny:        true,
				Images:      images,
				CharRepeats: 1,
				Governor: fpgauv.GovernorConfig{
					Enabled:     governed,
					Interval:    4 * time.Millisecond,
					StepMV:      2,
					MarginMV:    4,
					ProbeImages: 48,
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer pool.Close()
			// Hot dies: the regime where ITD headroom exists.
			if err := pool.HoldTemperatureC(-1, 52); err != nil {
				b.Fatal(err)
			}
			if governed {
				// Measure the steady state the governor is designed
				// around: every loop settled and quiesced (zero probe
				// overhead until conditions move).
				deadline := time.Now().Add(60 * time.Second)
				for {
					settled := 0
					for _, bd := range pool.Status().Boards {
						if bd.Governor != nil && bd.Governor.Settled {
							settled++
						}
					}
					if settled == 3 {
						break
					}
					if time.Now().After(deadline) {
						b.Fatal("governor never settled")
					}
					time.Sleep(10 * time.Millisecond)
				}
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := pool.Classify(context.Background(), fpgauv.FleetRequest{}); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			st := pool.Status()
			var fleetW float64
			for _, bd := range st.Boards {
				fleetW += bd.PowerW
			}
			if secs := b.Elapsed().Seconds(); secs > 0 && b.N > 0 {
				b.ReportMetric(float64(b.N)*images/secs, "images/s")
				b.ReportMetric(fleetW*secs*1000/float64(b.N), "mJ/req")
			}
			b.ReportMetric(fleetW, "fleet_W")
			if st.Governor != nil {
				b.ReportMetric(st.Governor.SavedW, "saved_W")
			}
			if st.MACFaults != 0 {
				b.Fatalf("served traffic saw %d MAC faults", st.MACFaults)
			}
		})
	}
}

// BenchmarkScrubOverhead measures one frame-scrub pass over a deployed
// benchmark's full weight image — the background cost a fleet pays per
// board per scrub interval. The image is clean (the steady-state case:
// the executor restores its transient flips, so scrub passes usually
// find nothing), making this the pure scan cost.
func BenchmarkScrubOverhead(b *testing.B) {
	brd := board.MustNew(board.SampleB)
	rt, err := dnndk.NewRuntime(brd, 3)
	if err != nil {
		b.Fatal(err)
	}
	bench, err := models.New("VGGNet", models.Tiny)
	if err != nil {
		b.Fatal(err)
	}
	k, err := dnndk.Quantize(bench, dnndk.DefaultQuantizeOptions())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := rt.LoadKernel(k); err != nil {
		b.Fatal(err)
	}
	var weights [][]int8
	for i := range k.Nodes {
		if w := k.Nodes[i].WQ; w != nil {
			weights = append(weights, w.Data)
		}
	}
	prot := ecc.NewProtection(true)
	s := ecc.NewScrubber(weights)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := s.Scrub(prot)
		if rep.Corrected != 0 || rep.Reloaded != 0 {
			b.Fatal("clean image repaired")
		}
	}
	b.StopTimer()
	if b.Elapsed() > 0 && b.N > 0 {
		perWord := b.Elapsed().Seconds() / float64(b.N) / float64(s.Words())
		b.ReportMetric(perWord*1e9, "ns/word")
	}
}

// BenchmarkGovernedFleetECC is BenchmarkGovernedFleet for the BRAM
// rail: a single-board fleet governs VCCBRAM down (deterministic
// stepped ticks), unprotected versus SECDED-protected, then serves
// traffic at the settled points. The protected fleet must reach a
// strictly lower VCCBRAM (reported as vccbram_mV) at equal throughput
// and accuracy, with zero harmful events served.
func BenchmarkGovernedFleetECC(b *testing.B) {
	const images = 16
	for _, eccOn := range []bool{false, true} {
		name := "unprotected"
		if eccOn {
			name = "secded"
		}
		b.Run(name, func(b *testing.B) {
			pool, err := fpgauv.NewFleet(fpgauv.FleetConfig{
				Boards:      1,
				Tiny:        true,
				Images:      images,
				CharRepeats: 1,
				ECC:         fpgauv.ECCConfig{Enabled: eccOn, ScrubInterval: -1},
				Governor: fpgauv.GovernorConfig{
					Interval:        -1, // stepped explicitly below
					StepMV:          2,
					MarginMV:        4,
					ProbeImages:     16,
					BRAM:            true,
					BRAMStepMV:      5,
					BRAMMarginMV:    5,
					CorrectedBudget: 64,
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer pool.Close()
			if err := pool.HoldTemperatureC(-1, 34); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 220; i++ {
				pool.GovernorTick()
			}
			bd := pool.Status().Boards[0]
			if bd.Governor == nil || !bd.Governor.BRAM.Settled {
				b.Fatal("BRAM governor never settled")
			}
			// Snapshot the lifetime ECC counters: the settle phase's
			// canary probes deliberately drove candidates into their
			// fault region, and only the served-traffic delta below
			// should be judged.
			var base fpgauv.ECCStatus
			if st := pool.Status(); st.ECC != nil {
				base = *st.ECC
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := pool.Classify(context.Background(), fpgauv.FleetRequest{}); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			st := pool.Status()
			if secs := b.Elapsed().Seconds(); secs > 0 && b.N > 0 {
				b.ReportMetric(float64(b.N)*images/secs, "images/s")
			}
			b.ReportMetric(st.Boards[0].OperatingBRAMMV, "vccbram_mV")
			b.ReportMetric(st.Boards[0].VCCBRAMW*1000, "bram_mW")
			if st.ECC != nil {
				b.ReportMetric(float64(st.ECC.Corrected-base.Corrected), "corrected")
				if st.ECC.Silent != base.Silent || st.ECC.Detected != base.Detected {
					b.Fatalf("harmful events served: %+v (baseline %+v)", st.ECC.Counts, base.Counts)
				}
			}
			if st.MACFaults != 0 {
				b.Fatalf("served traffic saw %d MAC faults", st.MACFaults)
			}
		})
	}
}

// BenchmarkGuardbandEfficiencyGain measures the end-to-end headline
// number through the public API and reports it.
func BenchmarkGuardbandEfficiencyGain(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		p, err := fpgauv.NewPlatform(1)
		if err != nil {
			b.Fatal(err)
		}
		d, err := p.Deploy("VGGNet", fpgauv.DeployOptions{Tiny: true, Images: 8})
		if err != nil {
			b.Fatal(err)
		}
		base := d.Profile()
		if err := p.SetVCCINTmV(570); err != nil {
			b.Fatal(err)
		}
		gain = d.Profile().GOPsPerW / base.GOPsPerW
	}
	b.ReportMetric(gain, "x_gain_at_Vmin")
}

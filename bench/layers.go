package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"fpgauv"
	"fpgauv/internal/board"
	"fpgauv/internal/dnndk"
	"fpgauv/internal/dpu"
	"fpgauv/internal/ecc"
	"fpgauv/internal/fabric"
	"fpgauv/internal/models"
	"fpgauv/internal/nn"
	"fpgauv/internal/obs"
	"fpgauv/internal/pmbus"
	"fpgauv/internal/quant"
	"fpgauv/internal/tensor"
)

// The layers pass times each layer's exported functions from outside, on
// the shapes of the deployed VGGNet-tiny kernel. It adds nothing to the
// program: where the existing spans stop (at an opaque execute span),
// calling the layer directly is the only honest way to a per-layer number
// until the program grows its own per-layer profile.

const (
	probeMinRounds  = 4   // even a 150 ms call is sampled this often (the first round is warm-up)
	faultyMV        = 550 // sample B: inside the critical region, faults live, above Vcrash
	layerSeedOffset = 500 // keeps the probes' pool seeds clear of the workloads'
)

// probe is one timed function.
type probe struct {
	name string
	// inner is how many back-to-back calls one timed sample holds:
	// nanosecond-scale functions need many, or the clock read is the
	// measurement.
	inner int
	// workers pins the GEMM tile pool for this probe: 1 for the bare
	// kernels, 0 for the automatic width the executor runs at.
	workers int
	prep    func() // untimed, before every sample
	fn      func()
	samples []float64 // nanoseconds per call, one per round
}

// ns is the probe's lower quartile over the rounds after the warm-up
// round: like the workloads' best-slice estimators it leans towards the
// rounds the host ran unhindered, without resting on a single one.
func (pr *probe) ns() float64 { return percentile(pr.samples[1:], 0.25) }

// prober holds the registered probes and the first error any of them hit.
type prober struct {
	probes []*probe
	rec    *recorder
	err    error
	// The weight layers' probes, which the executor's probes subtract.
	dense, requant *probe
}

func (p *prober) note(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

func (p *prober) add(pr *probe) *probe {
	if pr.inner == 0 {
		pr.inner = 1
	}
	p.probes = append(p.probes, pr)
	return pr
}

// run samples the probes round-robin — every probe once per round — until
// the budget is spent. Interleaving is what makes the numbers usable on a
// shared two-core box: a slow stretch of the host lands on one round of
// every probe instead of on every sample of one probe, so medians and
// above all ratios between probes (sparse over dense, faulty minus clean)
// hold still.
func (p *prober) run(budget time.Duration) {
	defer quant.SetWorkers(0)
	begin := time.Now()
	for round := 0; round < probeMinRounds || time.Since(begin) < budget; round++ {
		for _, pr := range p.probes {
			quant.SetWorkers(pr.workers)
			if pr.prep != nil {
				pr.prep()
			}
			startNS := obs.NowNS()
			t0 := time.Now()
			for i := 0; i < pr.inner; i++ {
				pr.fn()
			}
			pr.samples = append(pr.samples, float64(time.Since(t0))/float64(pr.inner))
			p.rec.add(harnessSpan(fmt.Sprintf("%s#%d", pr.name, round), "harness."+pr.name, startNS, obs.NowNS()), nil)
		}
	}
}

// paired is the median over rounds of f applied to the probes' samples of
// that round: the way to a small difference between large numbers, which
// the host's drift between one round and the next would otherwise bury.
func paired(f func(ns []float64) float64, probes ...*probe) float64 {
	var vs []float64
	ns := make([]float64, len(probes))
	for r := 1; ; r++ {
		for i, pr := range probes {
			if r >= len(pr.samples) {
				return median(vs)
			}
			ns[i] = pr.samples[r]
		}
		vs = append(vs, f(ns))
	}
}

// weightLayer is one conv or FC node of the deployed kernel with the
// operands every GEMM variant needs.
type weightLayer struct {
	conv     *nn.Conv2D // nil for a fully-connected node
	kn       *dpu.KernelNode
	sparse50 *quant.SparseWeights // the 50% block-pruned kernel's packed image
	sparse0  *quant.SparseWeights // the unpruned weights through the sparse walk
	xs       []*quant.QTensor     // one micro-batch of inputs at this node's shape
	shape    quant.ConvShape
	blockLen int // accumulators per image
}

// weightLayers deploys VGGNet-tiny dense and 50% block-pruned and pairs up
// their conv/FC nodes. Activations are random int8 at each node's true
// input shape: GEMM time does not depend on activation values, and the
// sparse walk's skips are decided by the weights alone.
func weightLayers(seed int64) ([]*weightLayer, *dpu.Kernel, error) {
	deploy := func(sparsity float64) (*dpu.Kernel, error) {
		b, err := models.New(benchmarkName, models.Tiny)
		if err != nil {
			return nil, err
		}
		opts := dnndk.DefaultQuantizeOptions()
		opts.Sparsity, opts.PruneBlocks = sparsity, sparsity > 0
		return dnndk.Quantize(b, opts)
	}
	dense, err := deploy(0)
	if err != nil {
		return nil, nil, err
	}
	pruned, err := deploy(pruneSparsity)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var layers []*weightLayer
	for i, n := range dense.Graph.Nodes() {
		kn := &dense.Nodes[i]
		if kn.WQ == nil {
			continue
		}
		wl := &weightLayer{kn: kn, sparse50: pruned.Nodes[i].SW}
		if wl.sparse50 == nil {
			return nil, nil, fmt.Errorf("pruned kernel node %q did not deploy on the sparse backend", n.Label)
		}
		if wl.sparse0, err = quant.PackSparse(kn.WQ); err != nil {
			return nil, nil, err
		}
		in := dense.Graph.InputShapesOf(n)[0]
		dims := []int{in.C, in.H, in.W}
		if conv, ok := n.Op.(*nn.Conv2D); ok {
			wl.conv = conv
		} else {
			dims = []int{kn.WQ.Dims[1]}
		}
		size := 1
		for _, d := range dims {
			size *= d
		}
		for b := 0; b < jobImages; b++ {
			x := &quant.QTensor{Data: make([]int8, size), Dims: dims, Scale: 1, Bits: dense.Bits}
			for j := range x.Data {
				x.Data[j] = int8(rng.Intn(255) - 127)
			}
			wl.xs = append(wl.xs, x)
		}
		if wl.conv != nil {
			wl.shape, err = quant.ConvShapeOf(wl.xs[0], kn.WQ, kn.BiasQ, wl.conv.Stride, wl.conv.Pad)
			if err != nil {
				return nil, nil, err
			}
			wl.blockLen = wl.shape.AccLen()
		} else {
			wl.blockLen = kn.WQ.Dims[0]
		}
		layers = append(layers, wl)
	}
	return layers, dense, nil
}

// quantProbes registers the int8 kernels: every probe walks the kernel's
// whole stack of weight layers, so each metric is the sum over layers.
// The tile pool is pinned to one worker: that is the pure cost of each
// walk, and it is also what a job sees in the batch workloads, where the
// other core is busy with the other job. report turns the samples into
// metrics once the rounds are done.
func (p *prober) quantProbes(seed int64) (report func(metricSet), err error) {
	layers, kernel, err := weightLayers(seed)
	if err != nil {
		return nil, err
	}
	var col []int8
	var acc []int32
	var out quant.QTensor

	im2col := p.add(&probe{name: "quant.im2col", workers: 1, fn: func() {
		for _, wl := range layers {
			if wl.conv == nil {
				continue
			}
			n := wl.shape.Cols() * wl.shape.Pixels()
			if cap(col) < n {
				col = make([]int8, n)
			}
			quant.Im2colInt8(wl.xs[0], wl.shape, col[:n])
		}
	}})
	// Each GEMM variant runs the stack on one stacked micro-batch.
	gemm := func(name string, conv, fc func(*weightLayer) error) *probe {
		return p.add(&probe{name: name, workers: 1, fn: func() {
			for _, wl := range layers {
				if wl.conv != nil {
					p.note(conv(wl))
				} else {
					p.note(fc(wl))
				}
			}
		}})
	}
	p.dense = gemm("quant.gemm_dense",
		func(wl *weightLayer) error {
			_, err := quant.Conv2DInt8GemmBatch(wl.xs, wl.kn.WQ, wl.kn.BiasQ, wl.conv.Stride, wl.conv.Pad, &col, &acc)
			return err
		},
		func(wl *weightLayer) error {
			_, err := quant.DenseInt8GemmBatch(wl.xs, wl.kn.WQ, wl.kn.BiasQ, &acc)
			return err
		})
	sparseWalk := func(name string, pick func(*weightLayer) *quant.SparseWeights) *probe {
		return gemm(name,
			func(wl *weightLayer) error {
				_, err := quant.Conv2DInt8GemmBatchSparse(wl.xs, pick(wl), wl.kn.BiasQ, wl.conv.Stride, wl.conv.Pad, &col, &acc)
				return err
			},
			func(wl *weightLayer) error {
				_, err := quant.DenseInt8GemmBatchSparse(wl.xs, pick(wl), wl.kn.BiasQ, &acc)
				return err
			})
	}
	sparse50 := sparseWalk("quant.gemm_sparse50", func(wl *weightLayer) *quant.SparseWeights { return wl.sparse50 })
	sparse0 := sparseWalk("quant.gemm_sparse0", func(wl *weightLayer) *quant.SparseWeights { return wl.sparse0 })
	// The epilogue, per image, on whatever the last GEMM left in acc.
	p.requant = p.add(&probe{name: "quant.requantize", workers: 1, fn: func() {
		for _, wl := range layers {
			if cap(acc) < wl.blockLen {
				acc = make([]int32, wl.blockLen)
			}
			p.note(quant.RequantizeInto(&out, acc[:wl.blockLen], wl.kn.AccScale, wl.kn.OutScale, kernel.Bits, true, wl.blockLen))
		}
	}})

	var macs, bytes int64
	for _, wl := range layers {
		macs += wl.kn.MACs
		// Computed from tensor sizes, not measured: input codes, weights,
		// the patch matrix written then read, int32 accumulators written
		// then read by the epilogue, and the output codes.
		bytes += int64(len(wl.xs[0].Data)+len(wl.kn.WQ.Data)) + int64(wl.blockLen)*(2*4+1)
		if wl.conv != nil {
			bytes += 2 * int64(wl.shape.Cols()*wl.shape.Pixels())
		}
	}
	return func(m metricSet) {
		// The batched lowerings unfold internally, so im2col is subtracted
		// to leave the multiply-accumulate walk.
		perImage := func(pr *probe) float64 { return pr.ns()/jobImages - im2col.ns() }
		m.Set("quant.im2col_ns_per_image", im2col.ns())
		m.Set("quant.gemm_dense_ns_per_image", perImage(p.dense))
		m.Set("quant.gemm_sparse50_ns_per_image", perImage(sparse50))
		m.Set("quant.gemm_sparse0_ns_per_image", perImage(sparse0))
		m.Set("quant.sparse0_over_dense", perImage(sparse0)/perImage(p.dense))
		m.Set("quant.requantize_ns_per_image", p.requant.ns())
		m.Set("quant.macs_per_image", float64(macs))
		m.Set("quant.bytes_per_image", float64(bytes))
		m.Set("quant.gemm_dense_gmacs_per_s", float64(macs)/perImage(p.dense))
	}, nil
}

// dpuProbes registers the two executors, clean and with faults live, and
// the deployment pipeline in front of them.
func (p *prober) dpuProbes(seed int64) (report func(metricSet) error, err error) {
	plat, err := fpgauv.NewPlatform(1)
	if err != nil {
		return nil, err
	}
	dep, err := dnndk.DeployBenchmark(plat.Runtime(), benchmarkName, dnndk.DeployOptions{Tiny: true, Images: jobImages, Seed: seed})
	if err != nil {
		return nil, err
	}
	imgs := dep.Ds.Inputs
	scratch, single := dpu.NewScratch(), dpu.NewScratch()
	rngs := scratch.BatchRNGs(jobImages)
	rng := rand.New(rand.NewSource(seed))
	var faults int64
	batch := func(n int) func() {
		return func() {
			res, err := dep.Task.InferBatch(scratch, imgs[:n], rngs[:n])
			p.note(err)
			for i := range res {
				faults += res[i].MACFaults
			}
		}
	}
	rail := func(mv float64) func() { return func() { p.note(plat.SetVCCINTmV(mv)) } }
	nominal := rail(fpgauv.VnomMV)

	batch16 := p.add(&probe{name: "dpu.run_batch16", prep: nominal, fn: batch(jobImages)})
	// Straight after the clean pass, so the two pair up sample by sample:
	// fault injection is a few percent of a pass, less than the host's
	// drift between any two moments further apart. Three pairs a round,
	// because even so the difference sits near the noise floor.
	faulty := p.add(&probe{name: "dpu.run_batch16_faulty", prep: rail(faultyMV), fn: batch(jobImages)})
	p.probes = append(p.probes, batch16, faulty, batch16, faulty)
	batch1 := p.add(&probe{name: "dpu.run_batch1", prep: nominal, fn: batch(1)})
	run1 := p.add(&probe{name: "dpu.run_single", prep: nominal, fn: func() {
		_, err := dep.Task.RunWith(single, imgs[0], rng)
		p.note(err)
	}})
	// One worker, like the quant probes, so the executor's time and the
	// weight layers' time subtract in the same unit.
	serial16 := p.add(&probe{name: "dpu.run_batch16_serial", workers: 1, prep: nominal, fn: batch(jobImages)})

	quantize := p.add(&probe{name: "dnndk.quantize", fn: func() {
		b, err := models.New(benchmarkName, models.Tiny)
		if err == nil {
			_, err = dnndk.Quantize(b, dnndk.DefaultQuantizeOptions())
		}
		p.note(err)
	}})
	var rt *dnndk.Runtime
	deploy := p.add(&probe{name: "dnndk.deploy",
		prep: func() {
			// A fresh board and runtime per sample: a deployment into a
			// runtime that already holds one is not a first deployment.
			brd, err := board.New(board.SampleB)
			if err == nil {
				rt, err = dnndk.NewRuntime(brd, 3)
			}
			p.note(err)
		},
		fn: func() {
			if p.err != nil {
				return
			}
			_, err := dnndk.DeployBenchmark(rt, benchmarkName, dnndk.DeployOptions{Tiny: true, Images: sweepImages, Seed: seed})
			p.note(err)
		}})

	return func(m metricSet) error {
		if faults == 0 {
			return fmt.Errorf("no MAC faults at %d mV: the faulty pass measured a clean one", faultyMV)
		}
		m.Set("dpu.run_batch16_us", batch16.ns()/1e3)
		m.Set("dpu.run_batch1_us", batch1.ns()/1e3)
		m.Set("dpu.run_single_us", run1.ns()/1e3)
		m.Set("dpu.run_batch16_faulty_us", faulty.ns()/1e3)
		m.Set("dpu.fault_inject_ns_per_image", paired(func(ns []float64) float64 {
			return (ns[1] - ns[0]) / jobImages
		}, batch16, faulty))
		// Self time: the whole pass minus its weight layers, whose GEMM
		// probe already contains their im2col.
		m.Set("dpu.host_nodes_ns_per_image", paired(func(ns []float64) float64 {
			return (ns[0]-ns[1])/jobImages - ns[2]
		}, serial16, p.dense, p.requant))
		m.Set("dnndk.quantize_ms", quantize.ns()/1e6)
		m.Set("dnndk.deploy_ms", deploy.ns()/1e6)
		return nil
	}, nil
}

// leafProbes registers the small pure functions the sweeps and the ECC
// path call millions of times.
func (p *prober) leafProbes(seed int64) (report func(metricSet), err error) {
	rng := rand.New(rand.NewSource(seed))
	var sink int64

	word := rng.Uint64()
	check := ecc.Encode(word)
	bit := 0
	decode := p.add(&probe{name: "ecc.secded_decode", inner: 1000, fn: func() {
		bit = (bit + 1) & 63
		v, _ := ecc.Decode(word^(1<<bit), check) // single-bit error: the corrected path
		sink += int64(v)
	}})
	faults := p.add(&probe{name: "fabric.sample_faults", inner: 100, fn: func() {
		sink += fabric.SampleFaults(rng, 10_000_000, 1e-6)
	}})
	wordFaults := p.add(&probe{name: "fabric.sample_word_faults", inner: 100, fn: func() {
		sink += fabric.SampleWordFaults(rng, 40_000, 64, 1e-6).Total()
	}})

	brd, err := board.New(board.SampleB)
	if err != nil {
		return nil, err
	}
	brd.SetWorkload(board.Workload{UtilScale: 1})
	rail := pmbus.NewAdapter(brd.Bus(), board.AddrVCCINT)
	step := 0
	setRead := p.add(&probe{name: "pmbus.set_read", inner: 10, fn: func() {
		step++
		err := rail.SetVoltageMV(570 + float64(step%10))
		if err == nil {
			_, err = rail.PowerW()
		}
		p.note(err)
	}})

	var digest fpgauv.LatencyDigest
	observe := p.add(&probe{name: "telemetry.digest_observe", inner: 1000, fn: func() { digest.Observe(0.0123) }})

	return func(m metricSet) {
		m.Set("ecc.secded_decode_ns", decode.ns())
		m.Set("fabric.sample_faults_ns", faults.ns())
		m.Set("fabric.sample_word_faults_ns", wordFaults.ns())
		m.Set("pmbus.set_read_ns", setRead.ns())
		m.Set("telemetry.digest_observe_ns", observe.ns())
		_ = sink
	}, nil
}

// quietPool switches a pool's background loops off: the probes drive each
// explicitly, and an idle sampler or monitor would only add noise to
// microsecond timings.
func quietPool(cfg fpgauv.FleetConfig) fpgauv.FleetConfig {
	cfg.MonitorInterval = -1
	cfg.Telemetry = fpgauv.TelemetryConfig{Interval: -1}
	cfg.ECC.ScrubInterval = -1
	return cfg
}

// fleetProbes times the cold bring-up itself, then registers the
// scheduler's hand-off, scrub and telemetry paths on the pool it built
// and on a two-pool cluster.
func (p *prober) fleetProbes(seed int64, coldBuilds int, m metricSet) (report func(metricSet), closeAll func(), warmSeed int64, err error) {
	// Cold NewFleet on the workloads' own configuration: what setup_s is
	// mostly made of. Every build takes a seed nothing has cached.
	var pool *fpgauv.Fleet
	var colds []float64
	startNS := obs.NowNS()
	for i := 0; i < coldBuilds; i++ {
		if pool != nil {
			pool.Close()
		}
		cfg := quietPool(fleetConfig(fleetSeed(seed, layerSeedOffset+i), false))
		cfg.ECC.Enabled = true
		t0 := time.Now()
		if pool, err = fpgauv.NewFleet(cfg); err != nil {
			return nil, nil, 0, err
		}
		colds = append(colds, ms(time.Since(t0)))
	}
	p.rec.add(harnessSpan("fleet.characterize", "harness.fleet.characterize", startNS, obs.NowNS()), nil)
	m.Set("fleet.characterize_ms", median(colds))
	warmSeed = fleetSeed(seed, layerSeedOffset+coldBuilds-1) // characterization now cached

	router, err := fpgauv.NewCluster(fpgauv.ClusterConfig{
		Pools: 2,
		Pool:  quietPool(fpgauv.FleetConfig{Boards: 1, Tiny: true, Benchmark: benchmarkName, Seed: warmSeed}),
	})
	if err != nil {
		pool.Close()
		return nil, nil, 0, err
	}

	ctx := context.Background()
	// At Vmin+10 mV both fault probabilities are zero, so Classify serves
	// the cached reference predictions: what is left is queue push, worker
	// wake-up, reply — the pure hand-off cost.
	dispatch := p.add(&probe{name: "fleet.dispatch", inner: 10, fn: func() {
		_, err := pool.Classify(ctx, fpgauv.FleetRequest{})
		p.note(err)
	}})
	routed := p.add(&probe{name: "cluster.dispatch", inner: 10, fn: func() {
		_, err := router.Classify(ctx, fpgauv.FleetRequest{})
		p.note(err)
	}})
	var words int64
	scrub := p.add(&probe{name: "ecc.scrub", fn: func() { words = pool.ScrubNow().Scanned }})
	pool.SampleTelemetry() // prime the counter baselines
	sample := p.add(&probe{name: "telemetry.sample", inner: 10, fn: pool.SampleTelemetry})

	report = func(m metricSet) {
		m.Set("fleet.dispatch_us", dispatch.ns()/1e3)
		m.Set("cluster.dispatch_us", routed.ns()/1e3)
		if words > 0 {
			m.Set("ecc.scrub_ns_per_word", scrub.ns()/float64(words))
		}
		m.Set("telemetry.sample_us", sample.ns()/1e3)
	}
	return report, func() { router.Close(); pool.Close() }, warmSeed, nil
}

// probeShed saturates a one-board, one-slot pool through the public API —
// a long cancelable job occupies the worker, a second fills the backlog —
// and times the refusal every further submission gets. Refusal is the
// path a scheduler runs hottest exactly when it is overloaded, and it
// must not allocate. It runs on its own after the rounds, because the
// occupying job keeps a core busy.
func probeShed(seed int64, m metricSet, rec *recorder) error {
	pool, err := fpgauv.NewFleet(quietPool(fpgauv.FleetConfig{
		Boards: 1, Tiny: true, Benchmark: benchmarkName, Seed: seed,
		MaxQueue: 1, MicroBatch: 1,
	}))
	if err != nil {
		return err
	}
	shape := pool.InputShape()
	img := tensor.New(shape.C, shape.H, shape.W)
	// 1<<15 single-image micro-batches outlast the probe; the worker
	// abandons the job at the next micro-batch once the context is canceled.
	imgs := make([]*tensor.Tensor, 1<<15)
	for i := range imgs {
		imgs[i] = img
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
		pool.Close()
	}()
	waitFor := func(what string, cond func() bool) error {
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				return fmt.Errorf("shed probe: timeout waiting for %s", what)
			}
		}
		return nil
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = pool.Infer(ctx, fpgauv.FleetInferRequest{Images: imgs, Seed: 3}) // ends in context.Canceled
	}()
	if err := waitFor("a busy worker", func() bool { return pool.InFlight() == 1 }); err != nil {
		return err
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = pool.Classify(ctx, fpgauv.FleetRequest{Seed: 5}) // ends in context.Canceled
	}()
	if err := waitFor("a full backlog", func() bool { return pool.QueueDepth() == 1 }); err != nil {
		return err
	}

	// Rounds of a thousand refusals: the median round gives the time, the
	// minimum round the allocations — that count is process-wide, and the
	// occupying job allocates a little on its own goroutine.
	const rounds, calls = 20, 1000
	var served int
	var perCall []float64
	allocs := -1.0
	bg := context.Background()
	var before, after runtime.MemStats
	startNS := obs.NowNS()
	for r := 0; r < rounds; r++ {
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			_, err := pool.Classify(bg, fpgauv.FleetRequest{Seed: 9})
			// A plain type assertion, not errors.As: the target of
			// errors.As escapes to the heap, and this loop is counting
			// allocations. The pool returns its interned shed error
			// unwrapped.
			if _, shed := err.(fpgauv.SaturatedError); !shed {
				served++
			}
		}
		perCall = append(perCall, float64(time.Since(t0))/calls)
		runtime.ReadMemStats(&after)
		if a := float64(after.Mallocs-before.Mallocs) / calls; allocs < 0 || a < allocs {
			allocs = a
		}
	}
	rec.add(harnessSpan("fleet.shed", "harness.fleet.shed", startNS, obs.NowNS()), nil)
	if served > 0 {
		return fmt.Errorf("shed probe: saturated pool accepted %d submissions", served)
	}
	m.Set("fleet.shed_ns", median(perCall))
	m.Set("fleet.shed_allocs", allocs)
	return nil
}

// runLayers is the whole probe pass.
func runLayers(seed int64, budget time.Duration, rec *recorder) (*workloadRun, error) {
	run := &workloadRun{name: wlLayers, metrics: metricSet{}}
	m := run.metrics
	m.Set("quant.workers", float64(quant.Workers()))
	p := &prober{rec: rec}

	// One cold fleet build is about a second on the reference host; a
	// short budget affords one, the full pass the median of three.
	coldBuilds := min(max(int(budget/(5*time.Second)), 1), 3)
	begin := time.Now()
	quantReport, err := p.quantProbes(seed)
	if err != nil {
		return nil, err
	}
	dpuReport, err := p.dpuProbes(seed)
	if err != nil {
		return nil, err
	}
	leafReport, err := p.leafProbes(seed)
	if err != nil {
		return nil, err
	}
	fleetReport, closeFleet, warmSeed, err := p.fleetProbes(seed, coldBuilds, m)
	if err != nil {
		return nil, err
	}
	p.run(budget - time.Since(begin))
	closeFleet()
	if p.err != nil {
		return nil, fmt.Errorf("layer probes: %w", p.err)
	}
	quantReport(m)
	if err := dpuReport(m); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	leafReport(m)
	fleetReport(m)
	if err := probeShed(warmSeed, m, rec); err != nil {
		return nil, err
	}
	run.totals.attempted = len(p.probes) + 1
	return run, nil
}

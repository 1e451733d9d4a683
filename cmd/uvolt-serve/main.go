// Command uvolt-serve runs an HTTP inference service on a fleet of
// simulated reduced-voltage ZCU102 boards: every board is characterized,
// parked inside its voltage guardband, and served classification traffic
// with automatic crash recovery.
//
// Usage:
//
//	uvolt-serve [-addr :8090] [-boards 3] [-bench VGGNet] [-images 32]
//	            [-bits 8] [-sparsity 0] [-prune-sparsity 0] [-sparse-backend auto]
//	            [-margin 10] [-batch 8] [-batch-images 16] [-micro-batch 16]
//	            [-batch-window 2ms] [-gemm-workers 0]
//	            [-pools 1] [-pool-boards 0] [-max-queue 0] [-spares 0]
//	            [-governor] [-governor-interval 25ms] [-governor-step 5]
//	            [-governor-margin 5] [-governor-probe 12]
//	            [-ecc] [-scrub-interval 250ms] [-governor-bram]
//	            [-telemetry-interval 50ms] [-slo-availability 0.999]
//	            [-slo-latency 250ms] [-slo-burn-threshold 4]
//	            [-trace] [-trace-ring 256] [-debug-addr :6060] [-log-level info]
//
// Endpoints:
//
//	POST /v1/infer         {"pixels": [...]}      classify one image
//	                       {"image_b64": "..."}   (base64 LE float32 CHW)
//	POST /v1/classify      {"seed": 7}            one evaluation-set pass
//	GET  /v1/trace/{id}                           one request's span tree
//	GET  /v1/traces?limit=N                       recent traces, newest first
//	GET  /v1/fleet/status[?pool=P]                pool + per-board snapshot
//	GET  /v1/fleet/events?cursor=K[&pool=P]       fleet event journal
//	POST /v1/fleet/voltage {"board": 0, "mv": 500}  command a VCCINT rail
//	GET  /v1/fleet/governor                       adaptive-voltage state
//	POST /v1/fleet/governor {"enabled": true}     toggle / tune the governor
//	GET  /v1/fleet/ecc                            SECDED + scrubbing state
//	POST /v1/fleet/ecc     {"enabled": true}      toggle ECC / tune scrubbing
//	GET  /v1/fleet/history?board=B&series=S       board telemetry time-series
//	                      [&res=raw|10s|1m][&n=N]
//	GET  /v1/fleet/health                         board health + SLO burn rates
//	GET  /v1/fleet/postmortems[?limit=N]          crash flight-recorder records
//	GET  /metrics                                 Prometheus text metrics
//	GET  /healthz                                 liveness
//
// With -pools N (N > 1) or -spares, the service runs a sharded cluster:
// N pools built from the same template (-pool-boards boards each,
// default -boards) behind a rendezvous router with admission control
// and load shedding (saturation answers 429 + Retry-After). -max-queue
// bounds each pool's backlog; -spares parks warm spare pools that
// promote when aggregate backlog crosses the shed threshold. The
// /v1/fleet/* endpoints then accept ?pool=P to scope one pool.
//
// With -debug-addr set, net/http/pprof is served on that separate
// listener under /debug/pprof/ — keep it off public interfaces.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fpgauv"
)

// Connection deadlines of the serving listener. A client gets this long
// to send its headers and its body (the largest legal one is ~100 KB),
// a request this long from its last header byte to its last response
// byte — queueing behind a saturated fleet included — and an idle
// keep-alive connection this long before it is closed.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 15 * time.Second
	writeTimeout      = 60 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	boards := flag.Int("boards", 3, "pool size (boards cycle the three silicon samples)")
	bench := flag.String("bench", "VGGNet", "Table 1 benchmark to serve")
	tiny := flag.Bool("tiny", true, "use the tiny model preset")
	images := flag.Int("images", 32, "evaluation images per request")
	bits := flag.Int("bits", 0, "quantization bits (default 8)")
	sparsity := flag.Float64("sparsity", 0, "DECENT pruning sparsity (unstructured)")
	pruneSparsity := flag.Float64("prune-sparsity", 0, "block-structured pruning sparsity matched to the sparse backend's skip geometry (overrides -sparsity)")
	sparseBackend := flag.String("sparse-backend", "", "compute backend: auto (default; per-kernel by realized block sparsity), dense or sparse")
	margin := flag.Float64("margin", 10, "mV of headroom above each board's Vmin")
	target := flag.Float64("target", 0, "explicit operating point in mV (0 = Vmin+margin)")
	batch := flag.Int("batch", 8, "max classify requests coalesced per accelerator pass")
	batchImages := flag.Int("batch-images", 16, "max images coalesced per inference micro-batch")
	microBatch := flag.Int("micro-batch", 16, "accelerator-pass size for inference jobs")
	window := flag.Duration("batch-window", 2*time.Millisecond, "longest hold of a request for batch-mates while every board is busy")
	gemmWorkers := flag.Int("gemm-workers", 0, "GEMM tile worker pool width shared by conv macro-tiles and batch lanes (0 = GOMAXPROCS-aware automatic)")
	pools := flag.Int("pools", 1, "pools in the cluster (1 = single pool, no router)")
	poolBoards := flag.Int("pool-boards", 0, "boards per pool when clustered (default: -boards)")
	maxQueue := flag.Int("max-queue", 0, "per-pool backlog bound; saturation sheds with 429 (0 = unbounded single pool, 8 per clustered pool)")
	spares := flag.Int("spares", 0, "warm-spare pools parked for promotion under backlog")
	governor := flag.Bool("governor", false, "start the adaptive voltage governor enabled")
	govInterval := flag.Duration("governor-interval", 25*time.Millisecond, "governor control period per board")
	govStep := flag.Float64("governor-step", 5, "governor step in mV")
	govMargin := flag.Float64("governor-margin", 5, "mV held above the deepest clean canary level")
	govProbe := flag.Int("governor-probe", 12, "canary images classified per governor tick")
	eccOn := flag.Bool("ecc", false, "enable BRAM SECDED protection")
	scrubInterval := flag.Duration("scrub-interval", 250*time.Millisecond, "frame-scrub period per board")
	govBRAM := flag.Bool("governor-bram", false, "let the governor walk VCCBRAM down (ECC-aware when -ecc)")
	telemetryInterval := flag.Duration("telemetry-interval", 50*time.Millisecond, "board telemetry sampling period (negative disables the sampler)")
	sloAvailability := flag.Float64("slo-availability", 0.999, "availability objective (fraction of requests that must succeed)")
	sloLatency := flag.Duration("slo-latency", 250*time.Millisecond, "latency objective threshold")
	sloLatencyGoal := flag.Float64("slo-latency-goal", 0.99, "fraction of requests that must beat -slo-latency")
	sloBurnThreshold := flag.Float64("slo-burn-threshold", 4, "burn-rate multiple that raises an slo_burn alert (both windows)")
	trace := flag.Bool("trace", true, "record request traces (served by /v1/trace and /v1/traces)")
	traceRing := flag.Int("trace-ring", 256, "recent traces retained")
	debugAddr := flag.String("debug-addr", "", "optional separate listener for /debug/pprof (empty = off)")
	logLevel := flag.String("log-level", "info", "slog level: debug, info, warn or error")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "uvolt-serve: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})))
	log := slog.Default()

	fcfg := fpgauv.FleetConfig{
		Boards:        *boards,
		Benchmark:     *bench,
		Tiny:          *tiny,
		Images:        *images,
		Bits:          *bits,
		Sparsity:      *sparsity,
		PruneSparsity: *pruneSparsity,
		SparseBackend: *sparseBackend,
		MarginMV:      *margin,
		TargetMV:      *target,
		MicroBatch:    *microBatch,
		MaxQueue:      *maxQueue,
		GemmWorkers:   *gemmWorkers,
		Governor: fpgauv.GovernorConfig{
			Enabled:     *governor,
			Interval:    *govInterval,
			StepMV:      *govStep,
			MarginMV:    *govMargin,
			ProbeImages: *govProbe,
			BRAM:        *govBRAM,
		},
		ECC: fpgauv.ECCConfig{
			Enabled:       *eccOn,
			ScrubInterval: *scrubInterval,
		},
		Telemetry: fpgauv.TelemetryConfig{
			Interval: *telemetryInterval,
		},
	}
	t0 := time.Now()
	var sched fpgauv.Scheduler
	if *pools > 1 || *spares > 0 {
		if *poolBoards > 0 {
			fcfg.Boards = *poolBoards
		}
		log.Info("bringing up cluster (characterizing Vmin/Vcrash)",
			"pools", *pools, "spares", *spares, "boards_per_pool", fcfg.Boards, "benchmark", *bench)
		cl, err := fpgauv.NewCluster(fpgauv.ClusterConfig{
			Pools: *pools, Spares: *spares, Pool: fcfg,
		})
		if err != nil {
			log.Error("cluster bring-up failed", "err", err)
			os.Exit(1)
		}
		sched = cl
	} else {
		log.Info("bringing up fleet (characterizing Vmin/Vcrash)", "boards", *boards, "benchmark", *bench)
		pool, err := fpgauv.NewFleet(fcfg)
		if err != nil {
			log.Error("fleet bring-up failed", "err", err)
			os.Exit(1)
		}
		sched = pool
	}
	// Mirror journal events (routes and sheds for a cluster; crashes,
	// rail moves and governor traffic per pool) onto the structured log
	// at -log-level granularity.
	sched.Journal().SetLogger(log)
	for _, p := range sched.Pools() {
		p.Journal().SetLogger(log)
	}
	for _, b := range sched.Status().Boards {
		log.Info("board characterized", "board", b.Board,
			"vmin_mv", b.VminMV, "vcrash_mv", b.VcrashMV, "operating_mv", b.OperatingMV,
			"guardband_reclaimed_mv", fpgauv.VnomMV-b.OperatingMV)
	}
	if *governor {
		log.Info("adaptive voltage governor enabled", "interval", *govInterval, "step_mv", *govStep)
	}
	if *eccOn {
		log.Info("BRAM SECDED protection enabled", "scrub_interval", *scrubInterval)
	}
	if *govBRAM {
		log.Info("governor will walk VCCBRAM", "ecc_aware", *eccOn)
	}
	log.Info("fleet ready", "elapsed", time.Since(t0).Round(time.Millisecond))

	srv := fpgauv.NewServer(sched, fpgauv.ServeConfig{
		BatchSize:   *batch,
		BatchImages: *batchImages,
		BatchWindow: *window,
		Trace:       *trace,
		TraceRing:   *traceRing,
		SLO: fpgauv.SLOConfig{
			AvailabilityTarget: *sloAvailability,
			LatencyTarget:      *sloLatency,
			LatencyGoal:        *sloLatencyGoal,
			BurnThreshold:      *sloBurnThreshold,
		},
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{Addr: *debugAddr, Handler: fpgauv.DebugHandler()}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Error("debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
		log.Info("pprof debug listener up", "addr", *debugAddr)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Info("listening", "addr", *addr, "trace", *trace)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Info("draining on signal", "signal", s.String())
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Error("listener failed", "err", err)
			os.Exit(1)
		}
	}

	// Graceful shutdown: stop accepting, let in-flight HTTP finish,
	// flush the batcher, drain the fleet queue, restore nominal rails.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Warn("http shutdown", "err", err)
	}
	if debugSrv != nil {
		_ = debugSrv.Close()
	}
	srv.Close()
	st := sched.Status()
	fmt.Printf("served=%d (eval=%d infer=%d images=%d) crashes=%d reboots=%d redeploys=%d canceled=%d\n",
		st.Served, st.EvalServed, st.InferServed, st.InferImages,
		st.Crashes, st.Reboots, st.Redeploys, st.Canceled)
	if st.Cluster != nil {
		fmt.Printf("cluster: pools=%d(+%d spare) routes=%d hops=%d sheds=%d spare_activations=%d\n",
			st.Cluster.ActivePools, st.Cluster.SparePools,
			st.Cluster.Routes, st.Cluster.Hops, st.Cluster.Sheds, st.Cluster.SpareActivations)
		for _, ps := range st.Cluster.Pools {
			fmt.Printf("  %s: active=%t boards=%d routes=%d sheds=%d\n",
				ps.Pool, ps.Active, ps.Boards, ps.Routes, ps.Sheds)
		}
	}
	if st.Shed > 0 {
		fmt.Printf("shed=%d (admission control refused with 429 + Retry-After)\n", st.Shed)
	}
	if st.Governor != nil && st.Governor.Enabled {
		// Rails are back at nominal after Close, so only the cumulative
		// energy saving is meaningful here.
		fmt.Printf("governor: probes=%d climbs=%d descents=%d saved=%.1f J\n",
			st.Governor.Probes, st.Governor.Climbs, st.Governor.Descents, st.Governor.SavedJ)
	}
	if st.ECC != nil && (st.ECC.Enabled || st.ECC.Total() > 0) {
		fmt.Printf("ecc: corrected=%d uncorrectable=%d silent=%d scrubs=%d (repaired %d words)\n",
			st.ECC.Corrected, st.ECC.Detected, st.ECC.Silent,
			st.ECC.ScrubPasses, st.ECC.ScrubCorrected+st.ECC.ScrubReloaded)
	}
}

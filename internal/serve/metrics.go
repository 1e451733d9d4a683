package serve

import (
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"fpgauv/internal/fleet"
	"fpgauv/internal/obs"
	"fpgauv/internal/telemetry"
)

// histogram is a fixed-bucket Prometheus histogram: lock-free observes,
// rendered as cumulative le buckets plus _sum and _count.
type histogram struct {
	bounds  []float64
	les     []string       // bounds rendered as le label values
	counts  []atomic.Int64 // one per bound, plus the +Inf overflow
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

func newHistogram(bounds ...float64) *histogram {
	h := &histogram{bounds: bounds, les: make([]string, len(bounds)+1), counts: make([]atomic.Int64, len(bounds)+1)}
	for i, b := range bounds {
		h.les[i] = strconv.FormatFloat(b, 'g', -1, 64)
	}
	h.les[len(bounds)] = "+Inf"
	return h
}

// Observe records one value.
func (h *histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// collect writes one series of the histogram: cumulative le buckets,
// then _sum and _count, under labels (alternating name, value).
func (h *histogram) collect(e *expo, labels ...string) {
	var ls [4]string // labels plus the le pair; the families here carry at most one label
	n := copy(ls[:], labels)
	ls[n] = "le"
	cum := int64(0)
	for i, le := range h.les {
		cum += h.counts[i].Load()
		ls[n+1] = le
		e.line("_bucket", float64(cum), ls[:n+2]...)
	}
	e.line("_sum", math.Float64frombits(h.sumBits.Load()), labels...)
	e.line("_count", float64(h.count.Load()), labels...)
}

// snapshot is what one /metrics render reads: the scheduler status and
// the SLO snapshot, each taken once, beside the server's own instruments.
type snapshot struct {
	*Server
	st  fleet.Status
	slo telemetry.SLOStatus
}

// expo accumulates one exposition; name is the family being written.
type expo struct {
	buf  []byte
	name string
}

// header writes a family's # HELP and # TYPE lines — the only place
// either is written.
func (e *expo) header(f *metricFamily) {
	e.name = f.name
	e.buf = append(e.buf, "# HELP "...)
	e.buf = append(e.buf, f.name...)
	e.buf = append(e.buf, ' ')
	e.buf = append(e.buf, f.help...)
	e.buf = append(e.buf, "\n# TYPE "...)
	e.buf = append(e.buf, f.name...)
	e.buf = append(e.buf, ' ')
	e.buf = append(e.buf, f.typ...)
	e.buf = append(e.buf, '\n')
}

// sample writes one sample of the current family; labels alternate
// name, value.
func (e *expo) sample(v float64, labels ...string) { e.line("", v, labels...) }

// line writes one sample line of the current family with a name suffix
// (a histogram's _bucket, _sum, _count). Values print at full precision.
func (e *expo) line(suffix string, v float64, labels ...string) {
	e.buf = append(e.buf, e.name...)
	e.buf = append(e.buf, suffix...)
	for i := 0; i+1 < len(labels); i += 2 {
		sep := byte(',')
		if i == 0 {
			sep = '{'
		}
		e.buf = append(e.buf, sep)
		e.buf = append(e.buf, labels[i]...)
		e.buf = append(e.buf, '=')
		e.buf = strconv.AppendQuote(e.buf, labels[i+1])
	}
	if len(labels) > 0 {
		e.buf = append(e.buf, '}')
	}
	e.buf = append(e.buf, ' ')
	e.buf = strconv.AppendFloat(e.buf, v, 'f', -1, 64)
	e.buf = append(e.buf, '\n')
}

// quantiles writes a digest's p50/p99/p999 samples under key=val.
func (e *expo) quantiles(d *telemetry.Digest, key, val string) {
	snap := d.Snapshot()
	e.sample(snap.P50, key, val, "q", "0.5")
	e.sample(snap.P99, key, val, "q", "0.99")
	e.sample(snap.P999, key, val, "q", "0.999")
}

// Metric types.
const (
	gauge         = "gauge"
	counter       = "counter"
	histogramType = "histogram"
)

// metricFamily is one row of the exposition: name, HELP, TYPE, an
// optional gate (nil: always present; a gated-off family writes no
// header either) and the function that writes its samples.
type metricFamily struct {
	name, help, typ string
	when            func(sn *snapshot) bool
	collect         func(e *expo, sn *snapshot)
}

// renderMetrics writes the Prometheus text exposition from one snapshot.
func (s *Server) renderMetrics() []byte {
	return (&snapshot{Server: s, st: s.sched.Status(), slo: s.slo.Snapshot()}).render()
}

// render writes every family of metricFamilies in order.
func (sn *snapshot) render() []byte {
	e := expo{buf: make([]byte, 0, 32<<10)}
	for i := range metricFamilies {
		f := &metricFamilies[i]
		if f.when != nil && !f.when(sn) {
			continue
		}
		e.header(f)
		f.collect(&e, sn)
	}
	return e.buf
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// one collects a family of one unlabeled sample.
func one(v func(sn *snapshot) float64) func(*expo, *snapshot) {
	return func(e *expo, sn *snapshot) { e.sample(v(sn)) }
}

// perBoard collects one board-labeled sample per board that has (nil:
// every board).
func perBoard(has func(bd *fleet.BoardStatus) bool, v func(bd *fleet.BoardStatus) float64) func(*expo, *snapshot) {
	return func(e *expo, sn *snapshot) {
		for i := range sn.st.Boards {
			if bd := &sn.st.Boards[i]; has == nil || has(bd) {
				e.sample(v(bd), "board", bd.Board)
			}
		}
	}
}

// perPool collects one pool-labeled sample per pool behind the router.
func perPool(v func(p *fleet.PoolRouteStatus) float64) func(*expo, *snapshot) {
	return func(e *expo, sn *snapshot) {
		for i := range sn.st.Cluster.Pools {
			p := &sn.st.Cluster.Pools[i]
			e.sample(v(p), "pool", p.Pool)
		}
	}
}

// Family gates and per-board filters.
func governed(sn *snapshot) bool                { return sn.st.Governor != nil }
func protected(sn *snapshot) bool               { return sn.st.ECC != nil }
func bramGoverned(sn *snapshot) bool            { return sn.st.Governor != nil && sn.st.Governor.BRAM }
func clustered(sn *snapshot) bool               { return sn.st.Cluster != nil }
func boardGoverned(bd *fleet.BoardStatus) bool  { return bd.Governor != nil }
func boardProtected(bd *fleet.BoardStatus) bool { return bd.ECC != nil }

// metricFamilies is the exposition, in order. It is the one place a
// metric is added: a row names the family, documents it and collects
// its samples from the scrape's snapshot.
var metricFamilies = []metricFamily{
	{"uvolt_build_info", "Build identity (value is always 1).", gauge, nil, func(e *expo, sn *snapshot) {
		e.sample(1, "version", obs.Version, "go", runtime.Version())
	}},
	{"uvolt_uptime_seconds", "Seconds since the server started.", gauge, nil,
		one(func(sn *snapshot) float64 { return time.Since(sn.started).Seconds() })},
	{"uvolt_fleet_boards", "Boards in the pool.", gauge, nil,
		one(func(sn *snapshot) float64 { return float64(len(sn.st.Boards)) })},
	{"uvolt_fleet_queue_depth", "Requests waiting for a board.", gauge, nil,
		one(func(sn *snapshot) float64 { return float64(sn.st.Queued) })},
	{"uvolt_fleet_in_flight", "Jobs executing on boards right now.", gauge, nil,
		one(func(sn *snapshot) float64 { return float64(sn.st.InFlight) })},
	{"uvolt_fleet_max_queue", "Admission bound on the backlog (0 = unbounded).", gauge, nil,
		one(func(sn *snapshot) float64 { return float64(sn.st.MaxQueue) })},
	{"uvolt_fleet_shed_total", "Requests refused by admission control (HTTP 429).", counter, nil,
		one(func(sn *snapshot) float64 { return float64(sn.st.Shed) })},
	{"uvolt_fleet_throughput_gops", "Aggregate modeled throughput (GOPs).", gauge, nil,
		one(func(sn *snapshot) float64 { return sn.st.GOPs })},
	{"uvolt_gemm_workers", "Effective width of the shared GEMM tile worker pool.", gauge, nil,
		one(func(sn *snapshot) float64 { return float64(sn.st.GemmWorkers) })},
	{"uvolt_gemm_pool_jobs_total", "Index spaces (a pass's lanes, or a GEMM's macro-tiles) offered to the tile pool.", counter, nil,
		one(func(sn *snapshot) float64 { return float64(sn.st.GemmPool.Jobs) })},
	{"uvolt_gemm_pool_offers_total", "Tile-pool offers by outcome: accepted (a helper ran tiles) or refused (none free in time).", counter, nil,
		func(e *expo, sn *snapshot) {
			e.sample(float64(sn.st.GemmPool.Accepted), "result", "accepted")
			e.sample(float64(sn.st.GemmPool.Refused), "result", "refused")
		}},
	{"uvolt_gemm_pool_tiles_total", "Tiles of pool jobs by who ran them.", counter, nil, func(e *expo, sn *snapshot) {
		e.sample(float64(sn.st.GemmPool.CallerTiles), "by", "caller")
		e.sample(float64(sn.st.GemmPool.HelperTiles), "by", "helper")
	}},
	{"uvolt_sparsity", "Pruned-away weight fraction of the deployed kernels (0 = dense).", gauge, nil,
		one(func(sn *snapshot) float64 { return sn.st.Sparsity })},
	{"uvolt_backend_info", "Compute backend the deployed kernels compiled for (value is always 1).", gauge, nil,
		func(e *expo, sn *snapshot) { e.sample(1, "backend", sn.st.Backend) }},
	{"uvolt_fleet_requests_total", "Classification requests admitted.", counter, nil,
		one(func(sn *snapshot) float64 { return float64(sn.st.Requests) })},
	{"uvolt_fleet_served_total", "Classification requests completed.", counter, nil,
		one(func(sn *snapshot) float64 { return float64(sn.st.Served) })},
	{"uvolt_fleet_eval_requests_total", "Evaluation-set passes admitted.", counter, nil,
		one(func(sn *snapshot) float64 { return float64(sn.st.EvalRequests) })},
	{"uvolt_fleet_eval_served_total", "Evaluation-set passes completed.", counter, nil,
		one(func(sn *snapshot) float64 { return float64(sn.st.EvalServed) })},
	{"uvolt_fleet_infer_requests_total", "Per-image inference jobs admitted.", counter, nil,
		one(func(sn *snapshot) float64 { return float64(sn.st.InferRequests) })},
	{"uvolt_fleet_infer_served_total", "Per-image inference jobs completed.", counter, nil,
		one(func(sn *snapshot) float64 { return float64(sn.st.InferServed) })},
	{"uvolt_fleet_infer_images_total", "Caller images classified.", counter, nil,
		one(func(sn *snapshot) float64 { return float64(sn.st.InferImages) })},
	{"uvolt_fleet_infer_micro_batches_total", "Accelerator passes run for inference jobs.", counter, nil,
		one(func(sn *snapshot) float64 { return float64(sn.st.InferMicroBatches) })},
	{"uvolt_fleet_requeues_total", "Requests handed to another board after a failure.", counter, nil,
		one(func(sn *snapshot) float64 { return float64(sn.st.Requeues) })},
	{"uvolt_fleet_rejected_total", "Requests rejected after shutdown.", counter, nil,
		one(func(sn *snapshot) float64 { return float64(sn.st.Rejected) })},
	{"uvolt_fleet_failed_total", "Requests failed after exhausting attempts.", counter, nil,
		one(func(sn *snapshot) float64 { return float64(sn.st.Failed) })},
	{"uvolt_fleet_canceled_total", "Queued jobs skipped because the caller went away.", counter, nil,
		one(func(sn *snapshot) float64 { return float64(sn.st.Canceled) })},
	{"uvolt_fleet_crashes_total", "Board crashes detected (VCCINT below Vcrash).", counter, nil,
		one(func(sn *snapshot) float64 { return float64(sn.st.Crashes) })},
	{"uvolt_fleet_reboots_total", "Board power cycles.", counter, nil,
		one(func(sn *snapshot) float64 { return float64(sn.st.Reboots) })},
	{"uvolt_fleet_redeploys_total", "Kernel re-deployments after crashes.", counter, nil,
		one(func(sn *snapshot) float64 { return float64(sn.st.Redeploys) })},
	{"uvolt_fleet_mac_faults_total", "Injected MAC fault events observed in served work.", counter, nil,
		one(func(sn *snapshot) float64 { return float64(sn.st.MACFaults) })},
	{"uvolt_fleet_bram_faults_total", "Injected BRAM bit flips observed in served work.", counter, nil,
		one(func(sn *snapshot) float64 { return float64(sn.st.BRAMFaults) })},

	{"uvolt_board_vccint_millivolts", "Live VCCINT rail level.", gauge, nil,
		perBoard(nil, func(bd *fleet.BoardStatus) float64 { return bd.VCCINTmV })},
	{"uvolt_board_vmin_millivolts", "Measured minimum safe voltage.", gauge, nil,
		perBoard(nil, func(bd *fleet.BoardStatus) float64 { return bd.VminMV })},
	{"uvolt_board_vcrash_millivolts", "Measured crash voltage.", gauge, nil,
		perBoard(nil, func(bd *fleet.BoardStatus) float64 { return bd.VcrashMV })},
	{"uvolt_board_vccbram_millivolts", "Live VCCBRAM rail level.", gauge, nil,
		perBoard(nil, func(bd *fleet.BoardStatus) float64 { return bd.VCCBRAMmV })},
	{"uvolt_board_temp_celsius", "Die temperature.", gauge, nil,
		perBoard(nil, func(bd *fleet.BoardStatus) float64 { return bd.TempC })},
	{"uvolt_board_power_watts", "On-chip power by rail.", gauge, nil, func(e *expo, sn *snapshot) {
		for i := range sn.st.Boards {
			bd := &sn.st.Boards[i]
			e.sample(bd.PowerW, "board", bd.Board, "rail", "total")
			e.sample(bd.VCCINTW, "board", bd.Board, "rail", "vccint")
			e.sample(bd.VCCBRAMW, "board", bd.Board, "rail", "vccbram")
		}
	}},
	{"uvolt_board_throughput_gops", "Modeled throughput at the present clock.", gauge, nil,
		perBoard(nil, func(bd *fleet.BoardStatus) float64 { return bd.GOPs })},
	{"uvolt_board_gops_per_watt", "Power efficiency at the present operating point.", gauge, nil,
		perBoard(nil, func(bd *fleet.BoardStatus) float64 { return bd.GOPsPerW })},
	{"uvolt_board_served_total", "Requests served by board.", counter, nil,
		perBoard(nil, func(bd *fleet.BoardStatus) float64 { return float64(bd.Served) })},
	{"uvolt_board_reboots_total", "Power cycles by board.", counter, nil,
		perBoard(nil, func(bd *fleet.BoardStatus) float64 { return float64(bd.Reboots) })},

	{"uvolt_governor_enabled", "Whether the adaptive voltage governor acts on its ticks.", gauge, governed,
		one(func(sn *snapshot) float64 { return b2f(sn.st.Governor.Enabled) })},
	{"uvolt_governor_saved_watts", "Modeled power saved versus the static operating points.", gauge, governed,
		one(func(sn *snapshot) float64 { return sn.st.Governor.SavedW })},
	{"uvolt_governor_saved_joules", "Modeled energy saved since startup.", gauge, governed,
		one(func(sn *snapshot) float64 { return sn.st.Governor.SavedJ })},
	{"uvolt_governor_probes_total", "Canary probes run across all boards.", counter, governed,
		one(func(sn *snapshot) float64 { return float64(sn.st.Governor.Probes) })},
	{"uvolt_governor_climbs_total", "Upward operating-point moves.", counter, governed,
		one(func(sn *snapshot) float64 { return float64(sn.st.Governor.Climbs) })},
	{"uvolt_governor_descents_total", "Downward operating-point moves.", counter, governed,
		one(func(sn *snapshot) float64 { return float64(sn.st.Governor.Descents) })},
	{"uvolt_governor_canary_faults_total", "Fault events observed in canary probes.", counter, governed,
		one(func(sn *snapshot) float64 { return float64(sn.st.Governor.CanaryFaults) })},
	{"uvolt_governor_operating_millivolts", "Governed steady-state operating point.", gauge, governed,
		perBoard(boardGoverned, func(bd *fleet.BoardStatus) float64 { return bd.OperatingMV })},
	{"uvolt_governor_baseline_millivolts", "Static startup operating point.", gauge, governed,
		perBoard(boardGoverned, func(bd *fleet.BoardStatus) float64 { return bd.Governor.BaselineMV })},
	{"uvolt_governor_saved_watts_by_board", "Modeled power saved by board.", gauge, governed,
		perBoard(boardGoverned, func(bd *fleet.BoardStatus) float64 { return bd.Governor.SavedW })},

	{"uvolt_ecc_enabled", "Whether BRAM SECDED decoding is active.", gauge, protected,
		one(func(sn *snapshot) float64 { return b2f(sn.st.ECC.Enabled) })},
	{"uvolt_ecc_corrected_total", "BRAM words corrected transparently by SECDED.", counter, protected,
		one(func(sn *snapshot) float64 { return float64(sn.st.ECC.Corrected) })},
	{"uvolt_ecc_uncorrectable_total", "BRAM words flagged detected-uncorrectable.", counter, protected,
		one(func(sn *snapshot) float64 { return float64(sn.st.ECC.Detected) })},
	{"uvolt_ecc_silent_total", "BRAM words silently miscorrected (aliased multi-bit faults).", counter, protected,
		one(func(sn *snapshot) float64 { return float64(sn.st.ECC.Silent) })},
	{"uvolt_scrub_interval_ms", "Frame-scrub period per board.", gauge, protected,
		one(func(sn *snapshot) float64 { return sn.st.ECC.ScrubIntervalMS })},
	{"uvolt_scrub_passes_total", "Frame-scrub passes across all boards.", counter, protected,
		one(func(sn *snapshot) float64 { return float64(sn.st.ECC.ScrubPasses) })},
	{"uvolt_scrub_corrected_total", "Words repaired in place by scrub passes.", counter, protected,
		one(func(sn *snapshot) float64 { return float64(sn.st.ECC.ScrubCorrected) })},
	{"uvolt_scrub_reloaded_total", "Words reloaded from the DDR golden copy by scrub passes.", counter, protected,
		one(func(sn *snapshot) float64 { return float64(sn.st.ECC.ScrubReloaded) })},
	{"uvolt_ecc_corrected_by_board", "Corrected words by board.", counter, protected,
		perBoard(boardProtected, func(bd *fleet.BoardStatus) float64 { return float64(bd.ECC.Corrected) })},
	{"uvolt_ecc_uncorrectable_by_board", "Detected-uncorrectable words by board.", counter, protected,
		perBoard(boardProtected, func(bd *fleet.BoardStatus) float64 { return float64(bd.ECC.Detected) })},
	{"uvolt_ecc_silent_by_board", "Silently miscorrected words by board.", counter, protected,
		perBoard(boardProtected, func(bd *fleet.BoardStatus) float64 { return float64(bd.ECC.Silent) })},

	{"uvolt_governor_bram_probes_total", "VCCBRAM canary probes across all boards.", counter, bramGoverned,
		one(func(sn *snapshot) float64 { return float64(sn.st.Governor.BRAMProbes) })},
	{"uvolt_governor_bram_climbs_total", "Upward VCCBRAM moves.", counter, bramGoverned,
		one(func(sn *snapshot) float64 { return float64(sn.st.Governor.BRAMClimbs) })},
	{"uvolt_governor_bram_descents_total", "Downward VCCBRAM moves.", counter, bramGoverned,
		one(func(sn *snapshot) float64 { return float64(sn.st.Governor.BRAMDescents) })},
	{"uvolt_governor_bram_operating_millivolts", "Governed VCCBRAM operating point.", gauge, bramGoverned,
		perBoard(boardGoverned, func(bd *fleet.BoardStatus) float64 { return bd.OperatingBRAMMV })},

	{"uvolt_cluster_pools", "Pools behind the router, spares included.", gauge, clustered,
		one(func(sn *snapshot) float64 { return float64(len(sn.st.Cluster.Pools)) })},
	{"uvolt_cluster_active_pools", "Pools currently accepting routed traffic.", gauge, clustered,
		one(func(sn *snapshot) float64 { return float64(sn.st.Cluster.ActivePools) })},
	{"uvolt_cluster_routes_total", "Dispatch decisions made by the router.", counter, clustered,
		one(func(sn *snapshot) float64 { return float64(sn.st.Cluster.Routes) })},
	{"uvolt_cluster_hops_total", "Shed-and-retry handoffs to the next candidate pool.", counter, clustered,
		one(func(sn *snapshot) float64 { return float64(sn.st.Cluster.Hops) })},
	{"uvolt_cluster_sheds_total", "Requests refused outright (every candidate pool saturated).", counter, clustered,
		one(func(sn *snapshot) float64 { return float64(sn.st.Cluster.Sheds) })},
	{"uvolt_cluster_spare_activations_total", "Warm-spare pools promoted to active.", counter, clustered,
		one(func(sn *snapshot) float64 { return float64(sn.st.Cluster.SpareActivations) })},
	{"uvolt_cluster_pool_active", "Whether the pool accepts routed traffic.", gauge, clustered,
		perPool(func(p *fleet.PoolRouteStatus) float64 { return b2f(p.Active) })},
	{"uvolt_cluster_pool_queue_depth", "Backlog per pool.", gauge, clustered,
		perPool(func(p *fleet.PoolRouteStatus) float64 { return float64(p.Queued) })},
	{"uvolt_cluster_pool_inflight", "Jobs executing per pool.", gauge, clustered,
		perPool(func(p *fleet.PoolRouteStatus) float64 { return float64(p.InFlight) })},
	{"uvolt_cluster_pool_routes_total", "Requests dispatched per pool.", counter, clustered,
		perPool(func(p *fleet.PoolRouteStatus) float64 { return float64(p.Routes) })},
	{"uvolt_cluster_pool_sheds_total", "Attempts refused per pool (router pre-check or pool admission).", counter, clustered,
		perPool(func(p *fleet.PoolRouteStatus) float64 { return float64(p.Sheds) })},
	{"uvolt_cluster_pool_quiescent_boards", "Boards with settled voltage control per pool.", gauge, clustered,
		perPool(func(p *fleet.PoolRouteStatus) float64 { return float64(p.Quiescent) })},
	{"uvolt_cluster_pool_power_watts", "Modeled accelerator power per pool at present rails.", gauge, clustered,
		perPool(func(p *fleet.PoolRouteStatus) float64 { return p.PowerW })},

	{"uvolt_temperature_celsius", "Die temperature by board.", gauge, nil,
		perBoard(nil, func(bd *fleet.BoardStatus) float64 { return bd.TempC })},
	{"uvolt_power_watts", "Total on-chip power by board.", gauge, nil,
		perBoard(nil, func(bd *fleet.BoardStatus) float64 { return bd.PowerW })},
	{"uvolt_board_health_score", "Health score (100 = pristine margin, 0 = failing).", gauge, nil,
		perBoard(nil, func(bd *fleet.BoardStatus) float64 { return bd.HealthScore })},
	{"uvolt_board_degraded", "Whether the health scorer grades the board degraded.", gauge, nil,
		perBoard(nil, func(bd *fleet.BoardStatus) float64 { return b2f(bd.Health == telemetry.HealthDegraded) })},
	{"uvolt_postmortems_total", "Crash postmortems recorded by the flight recorder.", counter, nil,
		one(func(sn *snapshot) float64 {
			var n int64
			for _, p := range sn.pools {
				n += p.Telemetry().Flight().Total()
			}
			return float64(n)
		})},
	{"uvolt_slo_availability_target", "Availability objective (fraction of requests that must succeed).", gauge, nil,
		one(func(sn *snapshot) float64 { return sn.slo.AvailabilityTarget })},
	{"uvolt_slo_latency_target_seconds", "Latency objective threshold.", gauge, nil,
		one(func(sn *snapshot) float64 { return sn.slo.LatencyTargetMS / 1e3 })},
	{"uvolt_slo_burn_rate", "Error-budget burn rate by objective and window (1 = budget consumed exactly at the sustainable rate).", gauge, nil,
		func(e *expo, sn *snapshot) {
			for _, obj := range sn.slo.Objectives {
				for _, wn := range obj.Windows {
					e.sample(wn.BurnRate, "objective", obj.Objective, "window", wn.Window)
				}
			}
		}},
	{"uvolt_slo_burning", "Whether both burn windows exceed the alert threshold.", gauge, nil, func(e *expo, sn *snapshot) {
		for _, obj := range sn.slo.Objectives {
			e.sample(b2f(obj.Burning), "objective", obj.Objective)
		}
	}},
	{"uvolt_slo_burn_events_total", "Rising-edge burn alerts journaled by objective.", counter, nil, func(e *expo, sn *snapshot) {
		for _, obj := range sn.slo.Objectives {
			e.sample(float64(obj.BurnEvents), "objective", obj.Objective)
		}
	}},
	{"uvolt_endpoint_latency_seconds", "Streaming latency quantiles by endpoint (log-bucketed digest).", gauge, nil,
		func(e *expo, sn *snapshot) {
			e.quantiles(sn.classifyDigest, "endpoint", "classify")
			e.quantiles(sn.inferDigest, "endpoint", "infer")
		}},
	{"uvolt_pool_job_latency_seconds", "Streaming board-visit latency quantiles by pool.", gauge, nil, func(e *expo, sn *snapshot) {
		for _, p := range sn.pools {
			e.quantiles(p.LatencyDigest(), "pool", p.Name())
		}
	}},

	{"uvolt_batch_size", "Accelerator-pass batch sizes by traffic kind (classify: calls, infer: images).", histogramType, nil,
		func(e *expo, sn *snapshot) {
			sn.batchSizes["classify"].collect(e, "kind", "classify")
			sn.batchSizes["infer"].collect(e, "kind", "infer")
		}},
	{"uvolt_infer_latency_seconds", "End-to-end /v1/infer request latency.", histogramType, nil,
		func(e *expo, sn *snapshot) { sn.inferLatency.collect(e) }},
	{"uvolt_classify_latency_seconds", "End-to-end /v1/classify request latency.", histogramType, nil,
		func(e *expo, sn *snapshot) { sn.classifyLatency.collect(e) }},
	{"uvolt_stage_seconds", "Time spent per traced request stage.", histogramType, nil, func(e *expo, sn *snapshot) {
		for _, st := range stageOrder {
			sn.stageHist[st].collect(e, "stage", st)
		}
	}},
	{"uvolt_events_total", "Fleet journal events by kind.", counter, nil, collectEvents},

	{"uvolt_http_requests_total", "HTTP requests by path.", counter, nil, func(e *expo, sn *snapshot) {
		for i := range sn.routes {
			e.sample(float64(sn.routes[i].reqs.Load()), "path", sn.routes[i].path)
		}
	}},
	{"uvolt_http_responses_total", "HTTP responses by status class.", counter, nil, func(e *expo, sn *snapshot) {
		for i, class := range []string{"2xx", "4xx", "5xx"} {
			e.sample(float64(sn.resps[i].Load()), "code", class)
		}
	}},
	{"uvolt_http_errors_total", "HTTP error responses.", counter, nil,
		one(func(sn *snapshot) float64 { return float64(sn.errorResps.Load()) })},
	{"uvolt_batch_runs_total", "Accelerator passes run for HTTP classify traffic.", counter, nil,
		one(func(sn *snapshot) float64 { return float64(sn.batch.batches.Load()) })},
	{"uvolt_batch_coalesced_total", "Requests answered by a batch-mate's pass.", counter, nil,
		one(func(sn *snapshot) float64 { return float64(sn.batch.coalesced.Load()) })},
	{"uvolt_batch_canceled_total", "Pending waiters withdrawn before their batch flushed.", counter, nil,
		one(func(sn *snapshot) float64 { return float64(sn.batch.canceled.Load()) })},
	{"uvolt_batch_infer_runs_total", "Inference micro-batches submitted by the front-end.", counter, nil,
		one(func(sn *snapshot) float64 { return float64(sn.batch.inferBatches.Load()) })},
	{"uvolt_batch_infer_coalesced_total", "Infer calls that shared another caller's micro-batch.", counter, nil,
		one(func(sn *snapshot) float64 { return float64(sn.batch.inferCoalesced.Load()) })},
}

// collectEvents writes journal event counts by kind, merged across the
// scheduler journal and every distinct pool journal: for a single pool
// those are the same object (counted once), for a cluster the router
// tier and N board journals merge.
func collectEvents(e *expo, sn *snapshot) {
	counts := map[string]int64{}
	seen := map[*obs.Journal]bool{}
	add := func(jr *obs.Journal) {
		if jr == nil || seen[jr] {
			return
		}
		seen[jr] = true
		for k, v := range jr.Counts() {
			counts[k] += v
		}
	}
	add(sn.sched.Journal())
	for _, p := range sn.pools {
		add(p.Journal())
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		e.sample(float64(counts[k]), "kind", k)
	}
}

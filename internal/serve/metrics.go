package serve

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"fpgauv/internal/fleet"
	"fpgauv/internal/obs"
)

// poolJournals collects the per-pool board journals.
func poolJournals(pools []*fleet.Pool) []*obs.Journal {
	out := make([]*obs.Journal, len(pools))
	for i, p := range pools {
		out[i] = p.Journal()
	}
	return out
}

// histogram is a fixed-bucket Prometheus histogram: lock-free observes,
// rendered as cumulative le buckets plus _sum and _count.
type histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // one per bound, plus the +Inf overflow
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

func newHistogram(bounds ...float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
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

// render writes the histogram in Prometheus text format. labels is the
// rendered label set without the le pair ("" or `kind="infer",`).
func (h *histogram) render(b *strings.Builder, name, labels string) {
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", name, labels, strconv.FormatFloat(bound, 'g', -1, 64), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, cum)
	suffix := ""
	if bare := strings.TrimSuffix(labels, ","); bare != "" {
		suffix = "{" + bare + "}"
	}
	fmt.Fprintf(b, "%s_sum%s %g\n", name, suffix, math.Float64frombits(h.sumBits.Load()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, suffix, h.count.Load())
}

// renderMetrics emits the Prometheus text exposition of the fleet and
// front-end state: throughput GOPs, per-rail watts, fault counters,
// reboot counts and HTTP/batching counters.
func (s *Server) renderMetrics() string {
	st := s.sched.Status()
	var b strings.Builder

	gauge := func(name, help string, v any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	fmt.Fprintf(&b, "# HELP uvolt_build_info Build identity (value is always 1).\n# TYPE uvolt_build_info gauge\n")
	fmt.Fprintf(&b, "uvolt_build_info{version=%q,go=%q} 1\n", obs.Version, runtime.Version())
	gauge("uvolt_uptime_seconds", "Seconds since the server started.",
		fmt.Sprintf("%.3f", time.Since(s.started).Seconds()))
	gauge("uvolt_fleet_boards", "Boards in the pool.", len(st.Boards))
	gauge("uvolt_fleet_queue_depth", "Requests waiting for a board.", st.Queued)
	gauge("uvolt_fleet_in_flight", "Jobs executing on boards right now.", st.InFlight)
	gauge("uvolt_fleet_max_queue", "Admission bound on the backlog (0 = unbounded).", st.MaxQueue)
	counter("uvolt_fleet_shed_total", "Requests refused by admission control (HTTP 429).", st.Shed)
	gauge("uvolt_fleet_throughput_gops", "Aggregate modeled throughput (GOPs).", fmt.Sprintf("%.2f", st.GOPs))
	gauge("uvolt_gemm_workers", "Effective width of the shared GEMM tile worker pool.", st.GemmWorkers)
	counter("uvolt_gemm_pool_jobs_total", "Index spaces (a pass's lanes, or a GEMM's macro-tiles) offered to the tile pool.", st.GemmPool.Jobs)
	fmt.Fprintf(&b, "# HELP uvolt_gemm_pool_offers_total Tile-pool offers by outcome: accepted (a helper ran tiles) or refused (none free in time).\n# TYPE uvolt_gemm_pool_offers_total counter\n")
	fmt.Fprintf(&b, "uvolt_gemm_pool_offers_total{result=\"accepted\"} %d\nuvolt_gemm_pool_offers_total{result=\"refused\"} %d\n", st.GemmPool.Accepted, st.GemmPool.Refused)
	fmt.Fprintf(&b, "# HELP uvolt_gemm_pool_tiles_total Tiles of pool jobs by who ran them.\n# TYPE uvolt_gemm_pool_tiles_total counter\n")
	fmt.Fprintf(&b, "uvolt_gemm_pool_tiles_total{by=\"caller\"} %d\nuvolt_gemm_pool_tiles_total{by=\"helper\"} %d\n", st.GemmPool.CallerTiles, st.GemmPool.HelperTiles)
	gauge("uvolt_sparsity", "Pruned-away weight fraction of the deployed kernels (0 = dense).",
		fmt.Sprintf("%.4f", st.Sparsity))
	fmt.Fprintf(&b, "# HELP uvolt_backend_info Compute backend the deployed kernels compiled for (value is always 1).\n# TYPE uvolt_backend_info gauge\n")
	fmt.Fprintf(&b, "uvolt_backend_info{backend=%q} 1\n", st.Backend)
	counter("uvolt_fleet_requests_total", "Classification requests admitted.", st.Requests)
	counter("uvolt_fleet_served_total", "Classification requests completed.", st.Served)
	counter("uvolt_fleet_eval_requests_total", "Evaluation-set passes admitted.", st.EvalRequests)
	counter("uvolt_fleet_eval_served_total", "Evaluation-set passes completed.", st.EvalServed)
	counter("uvolt_fleet_infer_requests_total", "Per-image inference jobs admitted.", st.InferRequests)
	counter("uvolt_fleet_infer_served_total", "Per-image inference jobs completed.", st.InferServed)
	counter("uvolt_fleet_infer_images_total", "Caller images classified.", st.InferImages)
	counter("uvolt_fleet_infer_micro_batches_total", "Accelerator passes run for inference jobs.", st.InferMicroBatches)
	counter("uvolt_fleet_requeues_total", "Requests handed to another board after a failure.", st.Requeues)
	counter("uvolt_fleet_rejected_total", "Requests rejected after shutdown.", st.Rejected)
	counter("uvolt_fleet_failed_total", "Requests failed after exhausting attempts.", st.Failed)
	counter("uvolt_fleet_canceled_total", "Queued jobs skipped because the caller went away.", st.Canceled)
	counter("uvolt_fleet_crashes_total", "Board crashes detected (VCCINT below Vcrash).", st.Crashes)
	counter("uvolt_fleet_reboots_total", "Board power cycles.", int64(st.Reboots))
	counter("uvolt_fleet_redeploys_total", "Kernel re-deployments after crashes.", st.Redeploys)
	counter("uvolt_fleet_mac_faults_total", "Injected MAC fault events observed in served work.", st.MACFaults)
	counter("uvolt_fleet_bram_faults_total", "Injected BRAM bit flips observed in served work.", st.BRAMFaults)

	perBoard := func(name, help, typ string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	perBoard("uvolt_board_vccint_millivolts", "Live VCCINT rail level.", "gauge")
	for _, bd := range st.Boards {
		fmt.Fprintf(&b, "uvolt_board_vccint_millivolts{board=%q} %.2f\n", bd.Board, bd.VCCINTmV)
	}
	perBoard("uvolt_board_vmin_millivolts", "Measured minimum safe voltage.", "gauge")
	for _, bd := range st.Boards {
		fmt.Fprintf(&b, "uvolt_board_vmin_millivolts{board=%q} %.1f\n", bd.Board, bd.VminMV)
	}
	perBoard("uvolt_board_vcrash_millivolts", "Measured crash voltage.", "gauge")
	for _, bd := range st.Boards {
		fmt.Fprintf(&b, "uvolt_board_vcrash_millivolts{board=%q} %.1f\n", bd.Board, bd.VcrashMV)
	}
	perBoard("uvolt_board_vccbram_millivolts", "Live VCCBRAM rail level.", "gauge")
	for _, bd := range st.Boards {
		fmt.Fprintf(&b, "uvolt_board_vccbram_millivolts{board=%q} %.2f\n", bd.Board, bd.VCCBRAMmV)
	}
	perBoard("uvolt_board_temp_celsius", "Die temperature.", "gauge")
	for _, bd := range st.Boards {
		fmt.Fprintf(&b, "uvolt_board_temp_celsius{board=%q} %.2f\n", bd.Board, bd.TempC)
	}
	perBoard("uvolt_board_power_watts", "On-chip power by rail.", "gauge")
	for _, bd := range st.Boards {
		fmt.Fprintf(&b, "uvolt_board_power_watts{board=%q,rail=\"total\"} %.3f\n", bd.Board, bd.PowerW)
		fmt.Fprintf(&b, "uvolt_board_power_watts{board=%q,rail=\"vccint\"} %.3f\n", bd.Board, bd.VCCINTW)
		fmt.Fprintf(&b, "uvolt_board_power_watts{board=%q,rail=\"vccbram\"} %.3f\n", bd.Board, bd.VCCBRAMW)
	}
	perBoard("uvolt_board_throughput_gops", "Modeled throughput at the present clock.", "gauge")
	for _, bd := range st.Boards {
		fmt.Fprintf(&b, "uvolt_board_throughput_gops{board=%q} %.2f\n", bd.Board, bd.GOPs)
	}
	perBoard("uvolt_board_gops_per_watt", "Power efficiency at the present operating point.", "gauge")
	for _, bd := range st.Boards {
		fmt.Fprintf(&b, "uvolt_board_gops_per_watt{board=%q} %.2f\n", bd.Board, bd.GOPsPerW)
	}
	perBoard("uvolt_board_served_total", "Requests served by board.", "counter")
	for _, bd := range st.Boards {
		fmt.Fprintf(&b, "uvolt_board_served_total{board=%q} %d\n", bd.Board, bd.Served)
	}
	perBoard("uvolt_board_reboots_total", "Power cycles by board.", "counter")
	for _, bd := range st.Boards {
		fmt.Fprintf(&b, "uvolt_board_reboots_total{board=%q} %d\n", bd.Board, bd.Reboots)
	}

	if st.Governor != nil {
		enabled := 0
		if st.Governor.Enabled {
			enabled = 1
		}
		gauge("uvolt_governor_enabled", "Whether the adaptive voltage governor acts on its ticks.", enabled)
		gauge("uvolt_governor_saved_watts", "Modeled power saved versus the static operating points.",
			fmt.Sprintf("%.3f", st.Governor.SavedW))
		gauge("uvolt_governor_saved_joules", "Modeled energy saved since startup.",
			fmt.Sprintf("%.3f", st.Governor.SavedJ))
		counter("uvolt_governor_probes_total", "Canary probes run across all boards.", st.Governor.Probes)
		counter("uvolt_governor_climbs_total", "Upward operating-point moves.", st.Governor.Climbs)
		counter("uvolt_governor_descents_total", "Downward operating-point moves.", st.Governor.Descents)
		counter("uvolt_governor_canary_faults_total", "Fault events observed in canary probes.", st.Governor.CanaryFaults)
		perBoard("uvolt_governor_operating_millivolts", "Governed steady-state operating point.", "gauge")
		for _, bd := range st.Boards {
			if bd.Governor == nil {
				continue
			}
			fmt.Fprintf(&b, "uvolt_governor_operating_millivolts{board=%q} %.2f\n", bd.Board, bd.OperatingMV)
		}
		perBoard("uvolt_governor_baseline_millivolts", "Static startup operating point.", "gauge")
		for _, bd := range st.Boards {
			if bd.Governor == nil {
				continue
			}
			fmt.Fprintf(&b, "uvolt_governor_baseline_millivolts{board=%q} %.2f\n", bd.Board, bd.Governor.BaselineMV)
		}
		perBoard("uvolt_governor_saved_watts_by_board", "Modeled power saved by board.", "gauge")
		for _, bd := range st.Boards {
			if bd.Governor == nil {
				continue
			}
			fmt.Fprintf(&b, "uvolt_governor_saved_watts_by_board{board=%q} %.3f\n", bd.Board, bd.Governor.SavedW)
		}
	}

	if st.ECC != nil {
		enabled := 0
		if st.ECC.Enabled {
			enabled = 1
		}
		gauge("uvolt_ecc_enabled", "Whether BRAM SECDED decoding is active.", enabled)
		counter("uvolt_ecc_corrected_total", "BRAM words corrected transparently by SECDED.", st.ECC.Corrected)
		counter("uvolt_ecc_uncorrectable_total", "BRAM words flagged detected-uncorrectable.", st.ECC.Detected)
		counter("uvolt_ecc_silent_total", "BRAM words silently miscorrected (aliased multi-bit faults).", st.ECC.Silent)
		gauge("uvolt_scrub_interval_ms", "Frame-scrub period per board.", fmt.Sprintf("%.1f", st.ECC.ScrubIntervalMS))
		counter("uvolt_scrub_passes_total", "Frame-scrub passes across all boards.", st.ECC.ScrubPasses)
		counter("uvolt_scrub_corrected_total", "Words repaired in place by scrub passes.", st.ECC.ScrubCorrected)
		counter("uvolt_scrub_reloaded_total", "Words reloaded from the DDR golden copy by scrub passes.", st.ECC.ScrubReloaded)
		perBoard("uvolt_ecc_corrected_by_board", "Corrected words by board.", "counter")
		for _, bd := range st.Boards {
			if bd.ECC == nil {
				continue
			}
			fmt.Fprintf(&b, "uvolt_ecc_corrected_by_board{board=%q} %d\n", bd.Board, bd.ECC.Corrected)
		}
		perBoard("uvolt_ecc_uncorrectable_by_board", "Detected-uncorrectable words by board.", "counter")
		for _, bd := range st.Boards {
			if bd.ECC == nil {
				continue
			}
			fmt.Fprintf(&b, "uvolt_ecc_uncorrectable_by_board{board=%q} %d\n", bd.Board, bd.ECC.Detected)
		}
		perBoard("uvolt_ecc_silent_by_board", "Silently miscorrected words by board.", "counter")
		for _, bd := range st.Boards {
			if bd.ECC == nil {
				continue
			}
			fmt.Fprintf(&b, "uvolt_ecc_silent_by_board{board=%q} %d\n", bd.Board, bd.ECC.Silent)
		}
	}
	if st.Governor != nil && st.Governor.BRAM {
		counter("uvolt_governor_bram_probes_total", "VCCBRAM canary probes across all boards.", st.Governor.BRAMProbes)
		counter("uvolt_governor_bram_climbs_total", "Upward VCCBRAM moves.", st.Governor.BRAMClimbs)
		counter("uvolt_governor_bram_descents_total", "Downward VCCBRAM moves.", st.Governor.BRAMDescents)
		perBoard("uvolt_governor_bram_operating_millivolts", "Governed VCCBRAM operating point.", "gauge")
		for _, bd := range st.Boards {
			if bd.Governor == nil {
				continue
			}
			fmt.Fprintf(&b, "uvolt_governor_bram_operating_millivolts{board=%q} %.2f\n", bd.Board, bd.OperatingBRAMMV)
		}
	}

	if cl := st.Cluster; cl != nil {
		gauge("uvolt_cluster_pools", "Pools behind the router, spares included.", len(cl.Pools))
		gauge("uvolt_cluster_active_pools", "Pools currently accepting routed traffic.", cl.ActivePools)
		counter("uvolt_cluster_routes_total", "Dispatch decisions made by the router.", cl.Routes)
		counter("uvolt_cluster_hops_total", "Shed-and-retry handoffs to the next candidate pool.", cl.Hops)
		counter("uvolt_cluster_sheds_total", "Requests refused outright (every candidate pool saturated).", cl.Sheds)
		counter("uvolt_cluster_spare_activations_total", "Warm-spare pools promoted to active.", cl.SpareActivations)
		perPool := func(name, help, typ string) {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		}
		perPool("uvolt_cluster_pool_active", "Whether the pool accepts routed traffic.", "gauge")
		for _, p := range cl.Pools {
			v := 0
			if p.Active {
				v = 1
			}
			fmt.Fprintf(&b, "uvolt_cluster_pool_active{pool=%q} %d\n", p.Pool, v)
		}
		perPool("uvolt_cluster_pool_queue_depth", "Backlog per pool.", "gauge")
		for _, p := range cl.Pools {
			fmt.Fprintf(&b, "uvolt_cluster_pool_queue_depth{pool=%q} %d\n", p.Pool, p.Queued)
		}
		perPool("uvolt_cluster_pool_inflight", "Jobs executing per pool.", "gauge")
		for _, p := range cl.Pools {
			fmt.Fprintf(&b, "uvolt_cluster_pool_inflight{pool=%q} %d\n", p.Pool, p.InFlight)
		}
		perPool("uvolt_cluster_pool_routes_total", "Requests dispatched per pool.", "counter")
		for _, p := range cl.Pools {
			fmt.Fprintf(&b, "uvolt_cluster_pool_routes_total{pool=%q} %d\n", p.Pool, p.Routes)
		}
		perPool("uvolt_cluster_pool_sheds_total", "Attempts refused per pool (router pre-check or pool admission).", "counter")
		for _, p := range cl.Pools {
			fmt.Fprintf(&b, "uvolt_cluster_pool_sheds_total{pool=%q} %d\n", p.Pool, p.Sheds)
		}
		perPool("uvolt_cluster_pool_quiescent_boards", "Boards with settled voltage control per pool.", "gauge")
		for _, p := range cl.Pools {
			fmt.Fprintf(&b, "uvolt_cluster_pool_quiescent_boards{pool=%q} %d\n", p.Pool, p.Quiescent)
		}
		perPool("uvolt_cluster_pool_power_watts", "Modeled accelerator power per pool at present rails.", "gauge")
		for _, p := range cl.Pools {
			fmt.Fprintf(&b, "uvolt_cluster_pool_power_watts{pool=%q} %.3f\n", p.Pool, p.PowerW)
		}
	}

	s.renderTelemetryMetrics(&b, st)

	fmt.Fprintf(&b, "# HELP uvolt_batch_size Accelerator-pass batch sizes by traffic kind (classify: calls, infer: images).\n# TYPE uvolt_batch_size histogram\n")
	s.batchSizes["classify"].render(&b, "uvolt_batch_size", `kind="classify",`)
	s.batchSizes["infer"].render(&b, "uvolt_batch_size", `kind="infer",`)
	fmt.Fprintf(&b, "# HELP uvolt_infer_latency_seconds End-to-end /v1/infer request latency.\n# TYPE uvolt_infer_latency_seconds histogram\n")
	s.inferLatency.render(&b, "uvolt_infer_latency_seconds", "")
	fmt.Fprintf(&b, "# HELP uvolt_classify_latency_seconds End-to-end /v1/classify request latency.\n# TYPE uvolt_classify_latency_seconds histogram\n")
	s.classifyLatency.render(&b, "uvolt_classify_latency_seconds", "")
	fmt.Fprintf(&b, "# HELP uvolt_stage_seconds Time spent per traced request stage.\n# TYPE uvolt_stage_seconds histogram\n")
	for _, st := range stageOrder {
		s.stageHist[st].render(&b, "uvolt_stage_seconds", fmt.Sprintf("stage=%q,", st))
	}

	fmt.Fprintf(&b, "# HELP uvolt_events_total Fleet journal events by kind.\n# TYPE uvolt_events_total counter\n")
	// Aggregate counts across the scheduler journal and every distinct
	// pool journal: for a single pool those are the same object (counted
	// once), for a cluster the router tier and N board journals merge.
	counts := map[string]int64{}
	seen := map[*obs.Journal]bool{}
	for _, jr := range append([]*obs.Journal{s.sched.Journal()}, poolJournals(s.pools)...) {
		if jr == nil || seen[jr] {
			continue
		}
		seen[jr] = true
		for k, v := range jr.Counts() {
			counts[k] += v
		}
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "uvolt_events_total{kind=%q} %d\n", k, counts[k])
	}

	fmt.Fprintf(&b, "# HELP uvolt_http_requests_total HTTP requests by path.\n# TYPE uvolt_http_requests_total counter\n")
	fmt.Fprintf(&b, "uvolt_http_requests_total{path=\"/v1/classify\"} %d\n", s.classifyReqs.Load())
	fmt.Fprintf(&b, "uvolt_http_requests_total{path=\"/v1/infer\"} %d\n", s.inferReqs.Load())
	fmt.Fprintf(&b, "uvolt_http_requests_total{path=\"/v1/fleet/status\"} %d\n", s.statusReqs.Load())
	fmt.Fprintf(&b, "uvolt_http_requests_total{path=\"/v1/fleet/voltage\"} %d\n", s.voltageReqs.Load())
	fmt.Fprintf(&b, "uvolt_http_requests_total{path=\"/v1/fleet/governor\"} %d\n", s.governorReqs.Load())
	fmt.Fprintf(&b, "uvolt_http_requests_total{path=\"/v1/fleet/ecc\"} %d\n", s.eccReqs.Load())
	fmt.Fprintf(&b, "uvolt_http_requests_total{path=\"/v1/trace\"} %d\n", s.traceReqs.Load())
	fmt.Fprintf(&b, "uvolt_http_requests_total{path=\"/v1/traces\"} %d\n", s.tracesReqs.Load())
	fmt.Fprintf(&b, "uvolt_http_requests_total{path=\"/v1/fleet/events\"} %d\n", s.eventsReqs.Load())
	fmt.Fprintf(&b, "uvolt_http_requests_total{path=\"/v1/fleet/history\"} %d\n", s.historyReqs.Load())
	fmt.Fprintf(&b, "uvolt_http_requests_total{path=\"/v1/fleet/health\"} %d\n", s.healthReqs.Load())
	fmt.Fprintf(&b, "uvolt_http_requests_total{path=\"/v1/fleet/postmortems\"} %d\n", s.postmortemReqs.Load())
	fmt.Fprintf(&b, "uvolt_http_requests_total{path=\"/metrics\"} %d\n", s.metricsReqs.Load())
	fmt.Fprintf(&b, "# HELP uvolt_http_responses_total HTTP responses by status class.\n# TYPE uvolt_http_responses_total counter\n")
	fmt.Fprintf(&b, "uvolt_http_responses_total{code=\"2xx\"} %d\n", s.resp2xx.Load())
	fmt.Fprintf(&b, "uvolt_http_responses_total{code=\"4xx\"} %d\n", s.resp4xx.Load())
	fmt.Fprintf(&b, "uvolt_http_responses_total{code=\"5xx\"} %d\n", s.resp5xx.Load())
	counter("uvolt_http_errors_total", "HTTP error responses.", s.errorResps.Load())
	counter("uvolt_batch_runs_total", "Accelerator passes run for HTTP classify traffic.", s.batch.batches.Load())
	counter("uvolt_batch_coalesced_total", "Requests answered by a batch-mate's pass.", s.batch.coalesced.Load())
	counter("uvolt_batch_canceled_total", "Pending waiters withdrawn before their batch flushed.", s.batch.canceled.Load())
	counter("uvolt_batch_infer_runs_total", "Inference micro-batches submitted by the front-end.", s.batch.inferBatches.Load())
	counter("uvolt_batch_infer_coalesced_total", "Infer calls that shared another caller's micro-batch.", s.batch.inferCoalesced.Load())
	return b.String()
}

package main

import "sort"

// Clock tags: every printed number says whether it was read from the
// host's clock (noisy, compared within a bound) or produced by the
// simulator (repeats exactly for a given seed).
const (
	hostTime  = "host-time"
	simulated = "simulated"
)

const (
	lower  = "lower"
	higher = "higher"
)

// Workload names, in run order.
const (
	wlBatchDense  = "batch_dense"
	wlBatchPruned = "batch_pruned_ecc"
	wlHTTPSingle  = "http_single"
	wlPaperSweep  = "paper_sweep"
	// wlLayers is the exported-function probe pass. It is not a workload:
	// it has no end-to-end metrics and BENCHMARK.json does not list it.
	wlLayers = "layers"
)

// workload is one BENCHMARK.json workload entry.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workload{
	{wlBatchDense, "closed loop, 2 callers x 16-image Scheduler.Infer jobs at Vmin+10 mV: compute-bound, dense GEMM/im2col/requantize are all the work and serve is absent"},
	{wlBatchPruned, "same loop on a 50% block-pruned kernel under SECDED with governed rails and a live scrubber: sparse walk, ECC flip/restore and scrub share the dense code but use it differently"},
	{wlHTTPSingle, "open loop, 200 single-image POST /v1/infer per second through Server.Handler: serve owns ~60% of p50 (decode, batch window), the opposite split from batch_*"},
	{wlPaperSweep, "the paper's method on 5 benchmarks x 3 silicon samples: deploy, downward sweep to crash, profile; fault sampling, crash/reboot and host nodes dominate, and it carries the fidelity check"},
}

// metric describes one reported number.
type metric struct {
	Name   string
	Unit   string
	Better string
	Kind   string
	// Bound is the worsening allowed before -compare declares a
	// regression: a share of the baseline value, or an absolute amount in
	// the metric's unit when Abs is set.
	Bound float64
	Abs   bool
	// Gated end-to-end metrics are the ones BENCHMARK.json lists: defined
	// and non-zero on every workload, so a relative bound is meaningful.
	Gated bool
}

// endToEnd are the metrics a user of the system would see. The first six
// are gated by BENCHMARK.json; the last three are printed and compared by
// -compare but are zero (or near zero) by design, so they are enforced as
// correctness checks instead of relative bounds.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: lower, Kind: hostTime, Bound: 0.25, Gated: true},
	{Name: "images_per_s", Unit: "img/s", Better: higher, Kind: hostTime, Bound: 0.20, Gated: true},
	{Name: "cpu_ms_per_image", Unit: "ms", Better: lower, Kind: hostTime, Bound: 0.20, Gated: true},
	{Name: "p50_ms", Unit: "ms", Better: lower, Kind: hostTime, Bound: 0.20, Gated: true},
	{Name: "p90_ms", Unit: "ms", Better: lower, Kind: hostTime, Bound: 0.24, Gated: true},
	{Name: "gops_per_w", Unit: "GOPs/W", Better: higher, Kind: simulated, Bound: 0.02, Gated: true},
	{Name: "failed_share", Unit: "ratio", Better: lower, Kind: hostTime, Bound: 0, Abs: true},
	{Name: "guardband_err_mv", Unit: "mV", Better: lower, Kind: simulated, Bound: 0, Abs: true},
	{Name: "gain_vmin_err_pct", Unit: "%", Better: lower, Kind: simulated, Bound: 0, Abs: true},
}

func host(name, unit, better string) metric {
	return metric{Name: name, Unit: unit, Better: better, Kind: hostTime}
}

func sim(name, unit, better string) metric {
	return metric{Name: name, Unit: unit, Better: better, Kind: simulated}
}

// perLayer are the single-layer metrics, named layer.metric after the
// module that owns the cost. A metric reads 0 on a workload that never
// reaches its layer (no HTTP decode on batch_dense, no campaign points on
// http_single); the probe metrics are workload-independent.
var perLayer = []metric{
	// serve: existing spans, Status counters and scraper timings.
	host("serve.request_us_p50", "us", lower),
	host("serve.request_self_us_p50", "us", lower),
	host("serve.http_decode_us_p50", "us", lower),
	host("serve.http_decode_us_p90", "us", lower),
	host("serve.decode_json_us_p50", "us", lower),
	host("serve.decode_b64_us_p50", "us", lower),
	host("serve.batch_wait_us_p50", "us", lower),
	host("serve.batch_wait_us_p90", "us", lower),
	host("serve.assemble_us_p50", "us", lower),
	host("serve.respond_us_p50", "us", lower),
	host("serve.batch_images_mean", "img", higher),
	host("serve.metrics_scrape_us_p50", "us", lower),
	host("serve.status_us_p50", "us", lower),
	// fleet: existing spans and Status counters.
	host("fleet.fleet_wait_us_p50", "us", lower),
	host("fleet.fleet_wait_us_p90", "us", lower),
	host("fleet.execute_us_p50", "us", lower),
	host("fleet.execute_us_p90", "us", lower),
	host("fleet.requeues", "count", lower),
	host("fleet.crashes", "count", lower),
	host("fleet.micro_batches", "count", lower),
	// obs: cost of tracing itself.
	host("obs.trace_overhead_pct", "%", lower),
	host("obs.spans_dropped", "count", lower),
	// quant: exported kernels timed on the deployed VGGNet-tiny shapes.
	host("quant.im2col_ns_per_image", "ns", lower),
	host("quant.gemm_dense_ns_per_image", "ns", lower),
	host("quant.gemm_sparse50_ns_per_image", "ns", lower),
	host("quant.gemm_sparse0_ns_per_image", "ns", lower),
	host("quant.sparse0_over_dense", "ratio", lower),
	host("quant.requantize_ns_per_image", "ns", lower),
	sim("quant.macs_per_image", "count", lower),
	sim("quant.bytes_per_image", "B", lower),
	host("quant.gemm_dense_gmacs_per_s", "GMAC/s", higher),
	host("quant.workers", "count", higher),
	// dpu / dnndk: the two executors, fault injection and deployment.
	host("dpu.run_batch16_us", "us", lower),
	host("dpu.run_batch1_us", "us", lower),
	host("dpu.run_single_us", "us", lower),
	host("dpu.run_batch16_faulty_us", "us", lower),
	host("dpu.fault_inject_ns_per_image", "ns", lower),
	host("dpu.host_nodes_ns_per_image", "ns", lower),
	host("dnndk.quantize_ms", "ms", lower),
	host("dnndk.deploy_ms", "ms", lower),
	// ecc / fabric.
	host("ecc.scrub_ns_per_word", "ns", lower),
	host("ecc.secded_decode_ns", "ns", lower),
	sim("ecc.corrected_per_kimage", "count", lower),
	host("ecc.scrub_passes", "count", higher),
	host("fabric.sample_faults_ns", "ns", lower),
	host("fabric.sample_word_faults_ns", "ns", lower),
	// fleet / cluster: queue hand-off and refusal.
	host("fleet.dispatch_us", "us", lower),
	host("cluster.dispatch_us", "us", lower),
	host("fleet.shed_ns", "ns", lower),
	host("fleet.shed_allocs", "count", lower),
	host("fleet.characterize_ms", "ms", lower),
	// core / pmbus: the sweep protocol.
	host("core.campaign_ms_p50", "ms", lower),
	sim("core.points", "count", lower),
	sim("core.critical_points", "count", lower),
	sim("core.mac_faults_total", "count", lower),
	sim("core.guardband_err_mv", "mV", lower),
	sim("core.gain_vmin_err_pct", "%", lower),
	host("pmbus.set_read_ns", "ns", lower),
	// telemetry.
	host("telemetry.sample_us", "us", lower),
	host("telemetry.digest_observe_ns", "ns", lower),
	// harness: the load generator and the process, beside every workload.
	host("load.gen_lag_ms_p50", "ms", lower),
	host("load.gen_lag_ms_p99", "ms", lower),
	host("load.p50_ms", "ms", lower),
	host("load.p99_ms", "ms", lower),
	host("load.images_per_s_mean", "img/s", higher),
	host("process.allocs_per_image", "count", lower),
	host("process.sys_mb", "MB", lower),
}

// metricByName indexes both tables.
var metricByName = func() map[string]metric {
	m := make(map[string]metric, len(endToEnd)+len(perLayer))
	for _, mt := range endToEnd {
		m[mt.Name] = mt
	}
	for _, mt := range perLayer {
		m[mt.Name] = mt
	}
	return m
}()

// value is one measured metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects one run's numbers. Set panics on a name the tables
// do not declare: a metric that is printed but not specified is a bug in
// the harness, not a condition of the run.
type metricSet map[string]value

func (s metricSet) Set(name string, v float64) {
	mt, ok := metricByName[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in spec.go")
	}
	s[name] = value{Value: v, Unit: mt.Unit}
}

// names returns the set's metric names in table order (end-to-end first).
func (s metricSet) names() []string {
	order := make(map[string]int, len(metricByName))
	for i, mt := range endToEnd {
		order[mt.Name] = i
	}
	for i, mt := range perLayer {
		order[mt.Name] = len(endToEnd) + i
	}
	out := make([]string, 0, len(s))
	for n := range s {
		out = append(out, n)
	}
	sort.Slice(out, func(a, b int) bool { return order[out[a]] < order[out[b]] })
	return out
}

// selectMetrics returns the subset the driver contract asks for: every
// metric in table, with 0 for one this run's workload never reached.
func (s metricSet) selectMetrics(table []metric, gatedOnly bool) metricSet {
	out := make(metricSet, len(table))
	for _, mt := range table {
		if gatedOnly && !mt.Gated {
			continue
		}
		v, ok := s[mt.Name]
		if !ok {
			v = value{Unit: mt.Unit}
		}
		out[mt.Name] = v
	}
	return out
}

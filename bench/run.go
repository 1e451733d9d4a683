package main

import (
	"fmt"
	"time"

	"fpgauv"
)

// plan is what one invocation measures. Every phase length derives from
// the one -seconds flag, so all workloads scale by a common factor.
type plan struct {
	setups int           // cold set-ups timed; setup_s is their median
	timed  time.Duration // untraced timed phase: every end-to-end metric
	traced time.Duration // traced pass: span-derived per-layer metrics
	layers time.Duration // exported-function probes
}

// warmup is the untimed lead-in before a timed phase.
func (p plan) warmup() time.Duration { return p.timed / 10 }

// planFor maps the driver's -trace flag onto phases. An untraced run
// spends its whole budget on the timed phase; a traced run splits the
// same budget three ways — a short untraced reference (tracing overhead
// is the difference), the traced pass, and the layer probes — so both
// kinds of run take about -seconds.
func planFor(seconds float64, trace int) plan {
	d := time.Duration(seconds * float64(time.Second))
	switch trace {
	case 0:
		return plan{setups: 3, timed: d}
	case 1:
		return plan{setups: 1, timed: d / 3, traced: d / 3, layers: d / 3}
	default: // full run: the parent adds one separate layers pass
		return plan{setups: 3, timed: d, traced: d / 3}
	}
}

// layersPlan is the stand-alone probe pass of a full run.
func layersPlan(seconds float64) plan {
	return plan{layers: time.Duration(seconds * float64(time.Second) / 2)}
}

// pass is what one timed phase of a workload observed.
type pass struct {
	attempted int
	failed    int
	notes     []string // first few failures, for the report
	ops       []op     // every answered operation
	marks     []mark   // slice boundaries
	window    time.Duration
	lagMS     []float64 // open loop only: how late each shot fired
	faults    servedFaults
	before    procSnap
	after     procSnap
}

func (p *pass) images() int {
	n := 0
	for _, o := range p.ops {
		n += o.images
	}
	return n
}

func (p *pass) latenciesMS() []float64 {
	vs := make([]float64, len(p.ops))
	for i, o := range p.ops {
		vs[i] = ms(o.lat)
	}
	return vs
}

// servedFaults sums the fault outcomes the served jobs themselves
// reported (canary probes and scrub passes are not in it).
type servedFaults struct {
	corrected, detected, silent, mac int64
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	if len(p.notes) < 5 {
		p.notes = append(p.notes, fmt.Sprintf(format, args...))
	}
}

// invariant checks one whole-pass condition; a failed invariant counts
// as one failed operation.
func (p *pass) invariant(ok bool, format string, args ...any) {
	p.attempted++
	if !ok {
		p.fail(format, args...)
	}
}

func (p *pass) merge(o *pass) {
	p.attempted += o.attempted
	p.failed += o.failed
	for _, n := range o.notes {
		if len(p.notes) < 5 {
			p.notes = append(p.notes, n)
		}
	}
}

// slices returns the pass cut at its marks; a pass too short to hold one
// whole slice is a single slice from start to end.
func (p *pass) slices() []sliceStat {
	if ss := sliceStats(p.ops, p.marks); len(ss) > 0 {
		return ss
	}
	return sliceStats(p.ops, []mark{{cpu: p.before.cpu}, {at: p.window + 1, cpu: p.after.cpu}})
}

// report reduces an untraced pass to the end-to-end metrics the serving
// workloads share — each read from the pass's best slices, see bestOf —
// plus the harness's own whole-pass load and process numbers, which are
// plain means and percentiles over everything the pass did.
func (p *pass) report(m metricSet) {
	ss := p.slices()
	m.Set("images_per_s", bestOf(ss, higher, func(s sliceStat) float64 { return s.imagesPerS }))
	m.Set("cpu_ms_per_image", bestOf(ss, lower, func(s sliceStat) float64 { return s.cpuMSPerImage }))
	m.Set("p50_ms", bestOf(ss, lower, func(s sliceStat) float64 { return s.p50MS }))
	m.Set("p90_ms", bestOf(ss, lower, func(s sliceStat) float64 { return s.p90MS }))
	m.Set("failed_share", float64(p.failed)/float64(max(p.attempted, 1)))

	imgs := float64(max(p.images(), 1))
	lats := p.latenciesMS()
	m.Set("load.p50_ms", percentile(lats, 0.50))
	m.Set("load.p99_ms", percentile(lats, 0.99))
	if p.window > 0 {
		m.Set("load.images_per_s_mean", float64(p.images())/p.window.Seconds())
	}
	m.Set("load.gen_lag_ms_p50", percentile(p.lagMS, 0.50))
	m.Set("load.gen_lag_ms_p99", percentile(p.lagMS, 0.99))
	m.Set("process.allocs_per_image", float64(p.after.mallocs-p.before.mallocs)/imgs)
	m.Set("process.sys_mb", p.after.sysMB)
}

// traceOverhead is the traced pass's median latency against the untraced
// pass's, both read from their best slices, in percent of the untraced one.
func traceOverhead(m metricSet, untraced, traced *pass) {
	p50 := func(s sliceStat) float64 { return s.p50MS }
	if u := bestOf(untraced.slices(), lower, p50); u > 0 {
		m.Set("obs.trace_overhead_pct", 100*(bestOf(traced.slices(), lower, p50)-u)/u)
	}
}

// stageQuantiles writes a stage's p50 (and p90 when asked) from the
// traced pass's span samples.
func stageQuantiles(m metricSet, stats map[string][]float64, stage, prefix string, p90 bool) {
	if len(stats[stage]) == 0 {
		return
	}
	m.Set(prefix+"_us_p50", percentile(stats[stage], 0.50))
	if p90 {
		m.Set(prefix+"_us_p90", percentile(stats[stage], 0.90))
	}
}

// fleetCounters reports what the scheduler counted across one pass.
func fleetCounters(m metricSet, before, after fpgauv.FleetStatus) {
	m.Set("fleet.requeues", float64(after.Requeues-before.Requeues))
	m.Set("fleet.crashes", float64(after.Crashes-before.Crashes))
	mb := after.InferMicroBatches - before.InferMicroBatches
	m.Set("fleet.micro_batches", float64(mb))
	if mb > 0 {
		m.Set("serve.batch_images_mean", float64(after.InferImages-before.InferImages)/float64(mb))
	}
	if before.ECC != nil && after.ECC != nil {
		m.Set("ecc.scrub_passes", float64(after.ECC.ScrubPasses-before.ECC.ScrubPasses))
	}
}

// gopsPerW is the simulated efficiency at the rails the pool is parked
// at: aggregate modeled throughput over the summed on-chip board power.
func gopsPerW(st fpgauv.FleetStatus) float64 {
	var w float64
	for _, b := range st.Boards {
		w += b.PowerW
	}
	if w == 0 {
		return 0
	}
	return st.GOPs / w
}

// result is one workload's outcome as the result line and the result
// file carry it.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// workloadRun is everything one workload invocation produced.
type workloadRun struct {
	name    string
	totals  pass // attempted/failed/notes summed over every phase
	metrics metricSet
	// samples is how many operations the latency percentiles rest on.
	samples int
	// invalid flags a run whose load generator could not keep its own
	// schedule: its latencies measure the harness, not the program.
	invalid bool
}

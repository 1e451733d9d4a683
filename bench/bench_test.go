package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokePlan is about a second of each workload: long enough for every
// correctness check to bite, short enough for tier-1.
var smokePlan = plan{setups: 1, timed: time.Second, traced: 700 * time.Millisecond}

func checkSmoke(t *testing.T, run *workloadRun, err error, want ...string) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if run.totals.failed != 0 || run.totals.attempted == 0 {
		t.Fatalf("%s: attempted %d, failed %d: %v", run.name, run.totals.attempted, run.totals.failed, run.totals.notes)
	}
	for _, name := range want {
		if v, ok := run.metrics[name]; !ok || v.Value <= 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: metric %s = %v (present %v), want a positive number", run.name, name, v.Value, ok)
		}
	}
}

var gatedNames = []string{"setup_s", "images_per_s", "cpu_ms_per_image", "p50_ms", "p90_ms", "gops_per_w"}

func TestSmokeBatchPrunedECC(t *testing.T) {
	run, err := runBatch(wlBatchPruned, 3, smokePlan, &recorder{})
	checkSmoke(t, run, err, append(gatedNames, "fleet.execute_us_p50", "ecc.corrected_per_kimage")...)
}

func TestSmokeHTTPSingle(t *testing.T) {
	rec := &recorder{}
	// A third of the benchmark's rate: the race detector slows the program
	// several-fold, and the smoke test checks answers, not the schedule.
	run, err := runHTTP(3, smokePlan, 100, rec)
	checkSmoke(t, run, err, append(gatedNames,
		"serve.request_us_p50", "serve.http_decode_us_p50", "serve.decode_json_us_p50", "serve.decode_b64_us_p50",
		"serve.batch_wait_us_p50", "serve.respond_us_p50", "fleet.execute_us_p50")...)
	dir := t.TempDir()
	path, err := rec.dump(dir, wlHTTPSingle)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(string(b), "\n")
	var sp spanRec
	if err := json.Unmarshal([]byte(first), &sp); err != nil || sp.Parent != -1 || sp.EndNS <= sp.StartNS {
		t.Errorf("first dumped span %q: err %v", first, err)
	}
}

func TestSmokePaperSweep(t *testing.T) {
	// Two graph shapes on all three silicon samples, one repeat, two
	// passes: every per-campaign check and the replay check run.
	sp := sweepPlan{benchmarks: []string{"VGGNet", "ResNet50"}, samples: []int{0, 1, 2}, repeats: 1, passes: 2}
	run, err := runSweep(3, smokePlan, sp, &recorder{})
	checkSmoke(t, run, err, append(gatedNames, "core.points", "core.critical_points", "core.mac_faults_total")...)
	if got := run.totals.attempted; got != 2*6+2 {
		t.Errorf("attempted = %d, want 6 campaigns x 2 passes + 2 fidelity gates", got)
	}
}

// TestDriverContract drives batch_dense the way the acceptance pipeline
// does — flags with two dashes, traced — and checks the contract: the last
// line of output is the result object with exactly four keys, and its
// metrics are exactly the declared per-layer set, each with its declared
// unit. The traced run also carries the layer probes, so their numbers
// are checked here too.
func TestDriverContract(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	code := realMain([]string{"--workload", wlBatchDense, "--seed", "5", "--seconds", "1.5", "--trace", "1", "-out", dir}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := lines[len(lines)-1]
	var res struct {
		Correct   *bool            `json:"correct"`
		Attempted *int             `json:"attempted"`
		Failed    *int             `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(last))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, last)
	}
	if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
		t.Errorf("result %s", last)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
	}
	for _, mt := range perLayer {
		if v, ok := res.Metrics[mt.Name]; !ok || v.Unit != mt.Unit {
			t.Errorf("%s: present %v, unit %q, want %q", mt.Name, ok, v.Unit, mt.Unit)
		}
	}
	for _, name := range []string{
		"fleet.execute_us_p50", "fleet.fleet_wait_us_p50", "fleet.micro_batches", "serve.batch_images_mean",
		"quant.im2col_ns_per_image", "quant.gemm_dense_ns_per_image", "quant.gemm_sparse50_ns_per_image",
		"quant.sparse0_over_dense", "quant.macs_per_image", "quant.workers", "dpu.run_batch16_us", "dpu.run_single_us",
		"dnndk.quantize_ms", "dnndk.deploy_ms", "ecc.scrub_ns_per_word", "ecc.secded_decode_ns", "fabric.sample_faults_ns",
		"fleet.dispatch_us", "cluster.dispatch_us", "fleet.shed_ns", "fleet.characterize_ms", "pmbus.set_read_ns",
		"telemetry.sample_us", "telemetry.digest_observe_ns", "load.p99_ms", "process.sys_mb",
	} {
		if v := res.Metrics[name].Value; v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v, want a positive number", name, v)
		}
	}
	// Layers this workload never reaches read 0, not garbage.
	for _, name := range []string{"serve.http_decode_us_p50", "core.points", "fleet.crashes", "fleet.shed_allocs"} {
		if v := res.Metrics[name].Value; v != 0 {
			t.Errorf("%s = %v on batch_dense, want 0", name, v)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, wlBatchDense+".trace.jsonl")); err != nil {
		t.Errorf("no trace dump: %v", err)
	}

	// Untraced, the result carries exactly the gated end-to-end metrics.
	all := metricSet{}
	for _, mt := range endToEnd {
		all.Set(mt.Name, 1)
	}
	all.Set("load.p99_ms", 1)
	got := all.selectMetrics(endToEnd, true)
	if len(got) != len(gatedNames) {
		t.Errorf("untraced selection has %d metrics, want %d", len(got), len(gatedNames))
	}
	for _, name := range gatedNames {
		if _, ok := got[name]; !ok {
			t.Errorf("untraced selection lacks %s", name)
		}
	}
}

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json and spec.go one
// definition: same workloads, same gated metrics with the same bounds,
// same per-layer names.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []decl     `json:"end_to_end"`
		PerLayer   []decl     `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, spec has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w != workloads[i] {
			t.Errorf("workload %d: %+v, spec has %+v", i, w, workloads[i])
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	check := func(kind string, decls []decl, table []metric, bounded bool) {
		if len(decls) != len(table) {
			t.Errorf("%s: %d declared, spec has %d", kind, len(decls), len(table))
			return
		}
		for i, d := range decls {
			mt := table[i]
			if d.Name != mt.Name || d.Unit != mt.Unit || d.Better != mt.Better {
				t.Errorf("%s %d: declared %+v, spec has %s %s %s", kind, i, d, mt.Name, mt.Unit, mt.Better)
			}
			if bounded != (d.Bound != nil) || (bounded && *d.Bound != mt.Bound) {
				t.Errorf("%s %s: bound %v, spec has %v", kind, d.Name, d.Bound, mt.Bound)
			}
			if len(d.Unit) > 16 || len(d.Name) > 64 {
				t.Errorf("%s %s: name or unit too long", kind, d.Name)
			}
		}
	}
	var gated []metric
	largest := 0.0
	for _, mt := range endToEnd {
		if mt.Gated {
			gated = append(gated, mt)
			largest = math.Max(largest, mt.Bound)
		}
	}
	check("end_to_end", file.EndToEnd, gated, true)
	check("per_layer", file.PerLayer, perLayer, false)
	if metricByName["setup_s"].Bound != largest || largest > 0.25 {
		t.Errorf("setup_s must carry the largest bound, and none may exceed 0.25 (largest %v)", largest)
	}
	if file.RunSeconds != defaultSeconds || len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", file.RunSeconds, file.Paths)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}} {
		if got := percentile(vs, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if vs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %v, want 5", got)
	}
}

// TestQuartileSpreadMatchesPython pins the estimator to
// statistics.quantiles(vs, n=4): for 1..10 that is [2.75, 5.5, 8.25].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	vs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(vs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("spread of one sample = %v", got)
	}
}

// TestBestSlicesIgnoreSlowStretches is the reason the end-to-end metrics
// are read from a phase's best slices: with the host at half speed for
// seven seconds in ten, a mean reads the mixture and even a median reads
// the slow state, while the best twentieth of the slices still reads the
// program. Work finishing after the last mark is not counted.
func TestBestSlicesIgnoreSlowStretches(t *testing.T) {
	const width = 500 * time.Millisecond
	var ops []op
	var marks []mark
	cpu := time.Duration(0)
	for s := 0; s < 40; s++ {
		begin := time.Duration(s) * width
		marks = append(marks, mark{at: begin, cpu: cpu})
		jobs, lat := 40, 25*time.Millisecond
		if s%10 >= 3 {
			jobs, lat = 20, 50*time.Millisecond // the host went slow
		}
		for j := 0; j < jobs; j++ {
			ops = append(ops, op{at: begin + time.Duration(j)*width/time.Duration(jobs), lat: lat, images: 16})
		}
		cpu += 500 * time.Millisecond
	}
	end := 40 * width
	marks = append(marks, mark{at: end, cpu: cpu})
	ops = append(ops, op{at: end + time.Millisecond, lat: time.Hour, images: 16}) // straddles the end

	ss := sliceStats(ops, marks)
	if len(ss) != 40 {
		t.Fatalf("%d slices, want 40", len(ss))
	}
	if got := bestOf(ss, higher, func(s sliceStat) float64 { return s.imagesPerS }); got != 1280 {
		t.Errorf("images/s = %v, want the fast state's 1280", got)
	}
	if got := bestOf(ss, lower, func(s sliceStat) float64 { return s.p90MS }); got != 25 {
		t.Errorf("p90 = %v ms, want the fast state's 25", got)
	}
	if got := bestOf(ss, lower, func(s sliceStat) float64 { return s.cpuMSPerImage }); got != 500.0/640 {
		t.Errorf("cpu = %v ms/image, want %v", got, 500.0/640)
	}
	if got := sliceStats(ops, marks[:1]); got != nil {
		t.Errorf("one mark makes no slice, got %v", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []spanRec{
		{ID: 0, Parent: -1, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 2, Parent: 0, Name: "b", StartNS: 30, EndNS: 60},  // overlaps a: covered once
		{ID: 3, Parent: 0, Name: "c", StartNS: 90, EndNS: 120}, // clipped to the parent
		{ID: 4, Parent: 1, Name: "a1", StartNS: 10, EndNS: 25},
		{ID: 5, Parent: 9, Name: "orphan", StartNS: 0, EndNS: 7},
	}
	want := []int64{100 - 50 - 10, 30 - 15, 30, 30, 15, 7}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}

	rec := &recorder{traces: [][]spanRec{spans}}
	stats := rec.stageStats()
	if got := stats["root.self"]; len(got) != 1 || got[0] != 0.04 {
		t.Errorf("root.self = %v us, want [0.04]", got)
	}
	if got := stats["root/a"]; len(got) != 1 || got[0] != 0.03 {
		t.Errorf("root/a = %v us, want [0.03]", got)
	}
	var none *recorder
	none.add(spans[0], nil) // the untraced pass: must be a no-op, not a panic
	if len(none.stageStats()) != 0 {
		t.Error("nil recorder produced stats")
	}
}

// TestOpenLoopChargesStallToLaterShots is the coordinated-omission proof.
// One shot stalls while the generator is allowed a single request in
// flight, so every later shot fires late. Because latency runs from the
// scheduled time, the later shots' latencies carry the stall even though
// each took no time at all once fired; measured from the actual fire time
// — what a closed loop does — the stall would have vanished.
func TestOpenLoopChargesStallToLaterShots(t *testing.T) {
	const (
		interval = 2 * time.Millisecond
		stall    = 60 * time.Millisecond
		stalled  = 5
	)
	shots := openLoop(20, interval, 1, func(i int) bool {
		if i == stalled {
			time.Sleep(stall)
		}
		return true
	})
	for i, s := range shots {
		if !s.ok || s.due != time.Duration(i)*interval {
			t.Fatalf("shot %d: ok %v due %v", i, s.ok, s.due)
		}
	}
	if lat := shots[stalled-1].latency(); lat > stall/2 {
		t.Errorf("shot before the stall took %v", lat)
	}
	// Shot stalled+1 was due 2 ms after the stall began and could not fire
	// for another ~58 ms.
	next := shots[stalled+1]
	if next.latency() < stall/2 {
		t.Errorf("shot after the stall: latency %v does not include the stall", next.latency())
	}
	if service := next.end - next.start; service > stall/4 {
		t.Errorf("shot after the stall took %v once fired; its latency must come from waiting", service)
	}
	if next.lag() < stall/2 {
		t.Errorf("generator lag %v does not show the stall", next.lag())
	}
	// The backlog drains: 20 shots at 2 ms span 38 ms, less than the
	// stall, so every shot after it is late, by less each time.
	if a, b := shots[stalled+2].latency(), shots[19].latency(); b >= a {
		t.Errorf("lateness should shrink as the backlog drains: %v then %v", a, b)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lowerIsBetter := metricByName["p50_ms"] // 20 %
	higherIsBetter := metricByName["images_per_s"]
	for _, tc := range []struct {
		name string
		mt   metric
		a, b []float64
		want string
	}{
		{"same", lowerIsBetter, []float64{5}, []float64{5}, verdictIdentical},
		{"within", lowerIsBetter, []float64{5}, []float64{5.9}, verdictOK},
		{"beyond", lowerIsBetter, []float64{5}, []float64{6.1}, verdictRegression},
		{"faster", lowerIsBetter, []float64{5}, []float64{4}, verdictOK},
		{"throughput drop", higherIsBetter, []float64{1000}, []float64{790}, verdictRegression},
		{"noisy", lowerIsBetter, []float64{4, 5, 6, 7}, []float64{4.5, 5.5, 6.5, 7.5}, verdictUnresolved},
		{"noisy but every run better", lowerIsBetter, []float64{6, 7, 8, 9}, []float64{2, 3, 4, 5}, verdictOK},
		{"absolute", metricByName["failed_share"], []float64{0}, []float64{0.01}, verdictRegression},
	} {
		if got := judge(tc.mt, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		f := resultFile{
			Provenance: provenance{CPUModel: "test", Seed: 1, Seconds: 20},
			Workloads: map[string]workloadResult{wlHTTPSingle: {Correct: true, Attempted: 1, Succeeded: 1, Metrics: map[string]fileMetric{
				"p50_ms":               {Value: p50, Unit: "ms", Clock: hostTime},
				"serve.respond_us_p50": {Value: 12, Unit: "us", Clock: hostTime},
			}}},
		}
		path := filepath.Join(dir, name)
		if err := f.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, worse := write("a.json", 5), write("same.json", 5.1), write("worse.json", 6.5)
	var out bytes.Buffer
	if code := realMain([]string{"-compare", a, same}, &out, &out); code != 0 {
		t.Errorf("within bound: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "serve.respond_us_p50") {
		t.Errorf("per-layer metric not listed:\n%s", out.String())
	}
	out.Reset()
	if code := realMain([]string{"-compare", a, worse}, &out, &out); code == 0 || !strings.Contains(out.String(), verdictRegression) {
		t.Errorf("beyond bound: exit %d\n%s", code, out.String())
	}
}

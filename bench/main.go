// Command bench is the repository's one performance harness. It drives
// the public entry points — NewFleet, NewCluster, NewServer, NewPlatform,
// Server.Handler, Scheduler.Infer/Classify, Deployment.DetectRegions —
// with seeded load, checks every answer against an oracle, and prints
// every metric as "workload metric value unit clock".
//
//	go run ./bench                      all four workloads, then the layer probes
//	go run ./bench -workload http_single -seed 7 -seconds 20 -trace 0
//	go run ./bench -compare a.json b.json
//
// BENCHMARK.json at the repository root declares the workloads and the
// gated metrics; README.md in this directory explains each of them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// defaultSeconds is BENCHMARK.json's run_seconds, so the one-command run
// measures what the acceptance pipeline measures. The issue sized the
// phases at 30 s; the pipeline's 92 runs in 57 minutes leave room for 20.
const defaultSeconds = 20

// options are the parsed flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	compare  bool
	outDir   string
	jsonPath string
	args     []string
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload ("+strings.Join(workloadNames(), ", ")+", "+wlLayers+"); default: all, each in its own process")
	fs.Int64Var(&o.seed, "seed", 1, "seed for images, body order and deployment")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "timed-phase length; every other phase scales with it")
	fs.IntVar(&o.trace, "trace", -1, "0: untraced, end-to-end metrics; 1: traced, per-layer metrics; default: both")
	fs.BoolVar(&o.compare, "compare", false, "compare two result files (or comma-separated sets): bench -compare a.json b.json")
	fs.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for trace dumps and result files")
	fs.StringVar(&o.jsonPath, "json", "", "write the full result file here (default: <out>/results.json for a full run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.args = fs.Args()
	if o.seconds <= 0 || o.trace < -1 || o.trace > 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -trace one of 0, 1")
		return 2
	}

	var err error
	switch {
	case o.compare:
		err = runCompare(o.args, stdout)
	case o.workload == "":
		err = runAll(o, stdout, stderr)
	default:
		err = runOne(o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// errIncorrect marks a run that finished and printed its result but
// failed a correctness check: the exit code is non-zero either way.
var errIncorrect = errors.New("correctness checks failed")

// dispatch runs one workload in this process.
func dispatch(name string, seed int64, pl plan, rec *recorder) (*workloadRun, error) {
	switch name {
	case wlBatchDense, wlBatchPruned:
		return runBatch(name, seed, pl, rec)
	case wlHTTPSingle:
		return runHTTP(seed, pl, httpRate, rec)
	case wlPaperSweep:
		return runSweep(seed, pl, sweepPlanFor(pl.timed), rec)
	case wlLayers:
		return runLayers(seed, pl.layers, rec)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runOne is the single-workload mode: the driver's contract and the mode
// the parent re-executes itself in. The last line of standard output is
// the result object.
func runOne(o options, stdout io.Writer) error {
	procs := capProcs()
	pl := planFor(o.seconds, o.trace)
	if o.workload == wlLayers {
		pl = layersPlan(o.seconds)
	}
	fmt.Fprintf(stdout, "# bench workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d\n",
		o.workload, o.seed, o.seconds, o.trace, procs)

	var rec *recorder // nil records nothing: an untraced run pays nothing for spans
	if o.trace != 0 {
		rec = &recorder{}
	}
	run, err := dispatch(o.workload, o.seed, pl, rec)
	if err != nil {
		return err
	}
	if pl.layers > 0 && o.workload != wlLayers {
		probes, err := runLayers(o.seed, pl.layers, rec)
		if err != nil {
			return err
		}
		run.totals.merge(&probes.totals)
		for name, v := range probes.metrics {
			run.metrics[name] = v
		}
	}
	if rec != nil && len(rec.traces) > 0 {
		path, err := rec.dump(o.outDir, o.workload)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# trace dump: %s (%d traces)\n", path, len(rec.traces))
	}

	printRun(stdout, run)
	res := result{
		Correct:   run.totals.failed == 0,
		Attempted: run.totals.attempted,
		Failed:    run.totals.failed,
		Metrics:   run.metrics,
	}
	if o.jsonPath != "" {
		file := resultFile{Provenance: newProvenance(o.seed, pl), Workloads: map[string]workloadResult{
			o.workload: newWorkloadResult(run, res),
		}}
		if err := file.write(o.jsonPath); err != nil {
			return err
		}
	}
	// The driver reads exactly the declared metrics: the gated end-to-end
	// set untraced, every per-layer name traced.
	switch o.trace {
	case 0:
		res.Metrics = run.metrics.selectMetrics(endToEnd, true)
	case 1:
		res.Metrics = run.metrics.selectMetrics(perLayer, false)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// printRun writes the human-readable report: one line per metric.
func printRun(w io.Writer, run *workloadRun) {
	for _, name := range run.metrics.names() {
		v := run.metrics[name]
		fmt.Fprintf(w, "%s %s %.6g %s %s\n", run.name, name, v.Value, v.Unit, metricByName[name].Kind)
	}
	fmt.Fprintf(w, "# %s: attempted=%d succeeded=%d failed=%d\n",
		run.name, run.totals.attempted, run.totals.attempted-run.totals.failed, run.totals.failed)
	if run.samples > 0 {
		fmt.Fprintf(w, "# %s: p50_ms and p90_ms over n=%d operations\n", run.name, run.samples)
	}
	for _, n := range run.totals.notes {
		fmt.Fprintf(w, "# %s: FAILED %s\n", run.name, n)
	}
	if run.invalid {
		fmt.Fprintf(w, "# %s: INVALID median generator lag above %.1f ms: latencies measure the harness\n", run.name, lagLimitMS)
	}
}

// runAll is the default mode: every workload, then the layer probes, each
// in a fresh process. The fleet caches characterizations for the life of
// a process, so set-up time is only honest in a new one; a new process
// also stops one workload's heap and GEMM pool width leaking into the
// next.
func runAll(o options, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	capProcs()
	pl := planFor(o.seconds, o.trace)
	pl.layers = layersPlan(o.seconds).layers // the separate probe pass below
	file := resultFile{
		Provenance: newProvenance(o.seed, pl),
		Workloads:  make(map[string]workloadResult),
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	failed := false
	for _, name := range append(workloadNames(), wlLayers) {
		part := filepath.Join(o.outDir, name+".json")
		cmd := exec.Command(self,
			"-workload", name,
			"-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds),
			"-trace", fmt.Sprint(o.trace),
			"-out", o.outDir,
			"-json", part)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				return fmt.Errorf("running %s: %w", name, err)
			}
			failed = true
		}
		child, err := readResultFile(part)
		if err != nil {
			return fmt.Errorf("%s left no result: %w", name, err)
		}
		file.Workloads[name] = child.Workloads[name]
	}
	path := o.jsonPath
	if path == "" {
		path = filepath.Join(o.outDir, "results.json")
	}
	if err := file.write(path); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# results: %s\n", path)
	if failed {
		return errIncorrect
	}
	return nil
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// fileMetric is one metric in a result file: the value with its unit and
// the clock it was read from.
type fileMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Clock string  `json:"clock"`
}

// workloadResult is one workload's section of a result file.
type workloadResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Succeeded int  `json:"succeeded"`
	Failed    int  `json:"failed"`
	// Samples is how many operations p50_ms/p90_ms rest on.
	Samples int `json:"latency_samples,omitempty"`
	// Invalid marks a run whose load generator lagged its own schedule.
	Invalid  bool                  `json:"invalid,omitempty"`
	Failures []string              `json:"failures,omitempty"`
	Metrics  map[string]fileMetric `json:"metrics"`
}

func newWorkloadResult(run *workloadRun, res result) workloadResult {
	wr := workloadResult{
		Correct:   res.Correct,
		Attempted: res.Attempted,
		Succeeded: res.Attempted - res.Failed,
		Failed:    res.Failed,
		Samples:   run.samples,
		Invalid:   run.invalid,
		Failures:  run.totals.notes,
		Metrics:   make(map[string]fileMetric, len(res.Metrics)),
	}
	for name, v := range res.Metrics {
		wr.Metrics[name] = fileMetric{Value: v.Value, Unit: v.Unit, Clock: metricByName[name].Kind}
	}
	return wr
}

// resultFile is the one schema every run writes: the host fingerprint and
// one section per workload. results/baseline.json is a committed copy.
type resultFile struct {
	Provenance provenance                `json:"provenance"`
	Workloads  map[string]workloadResult `json:"workloads"`
}

func (f resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

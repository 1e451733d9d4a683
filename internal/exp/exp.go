// Package exp is the reproduction harness: one generator per table and
// figure of the paper's evaluation (Table 1, §4.1 power breakdown,
// Figs. 3-10, Table 2, and the multi-board variability findings). Each
// generator runs the corresponding experimental protocol on the simulated
// platform and renders the same rows/series the paper reports, so
// paper-vs-measured comparison is direct (recorded in EXPERIMENTS.md).
package exp

import (
	"fmt"
	"strings"

	"fpgauv/internal/board"
	"fpgauv/internal/core"
	"fpgauv/internal/dnndk"
	"fpgauv/internal/models"
)

// Options scales the experiment protocol. Defaults favor the full
// reproduction; tests and benches shrink Images/Repeats.
type Options struct {
	// Preset selects the model-zoo scale.
	Preset models.Preset
	// Images is the evaluation-set size per benchmark.
	Images int
	// Repeats is the number of repetitions averaged per measurement
	// (the paper uses 10).
	Repeats int
	// Seed derives all campaign randomness.
	Seed int64
	// Samples are the board samples to run on (default: all three).
	Samples []board.SampleID
	// Benchmarks filters the zoo (default: all five).
	Benchmarks []string
}

// DefaultOptions returns the full-protocol settings.
func DefaultOptions() Options {
	return Options{
		Preset:  models.Small,
		Images:  64,
		Repeats: 10,
		Seed:    1,
	}
}

// QuickOptions returns a reduced protocol for tests and benches.
func QuickOptions() Options {
	return Options{
		Preset:  models.Tiny,
		Images:  24,
		Repeats: 3,
		Seed:    1,
	}
}

// sanitize fills defaults.
func (o Options) sanitize() Options {
	if o.Images <= 0 {
		o.Images = 64
	}
	if o.Repeats <= 0 {
		o.Repeats = 10
	}
	if len(o.Samples) == 0 {
		o.Samples = []board.SampleID{board.SampleA, board.SampleB, board.SampleC}
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = models.Names()
	}
	return o
}

// rig is one assembled experiment: board, runtime, loaded task, labeled
// dataset.
type rig struct {
	bench *models.Benchmark
	task  *dnndk.Task
	ds    *models.Dataset
}

// buildRig assembles a fresh board of the given sample with the named
// benchmark quantized at the given options and a planted-label dataset,
// through the deployment protocol the API and the fleet use (the seed is
// taken as given: 0 stays 0).
func buildRig(sample board.SampleID, benchName string, opts Options, qopts dnndk.QuantizeOptions) (*rig, error) {
	brd, err := board.New(sample)
	if err != nil {
		return nil, err
	}
	rt, err := dnndk.NewRuntime(brd, 3)
	if err != nil {
		return nil, err
	}
	dep, err := dnndk.Deploy(rt, benchName, opts.Preset, qopts, opts.Images, opts.Seed)
	if err != nil {
		return nil, err
	}
	return &rig{bench: dep.Bench, task: dep.Task, ds: dep.Ds}, nil
}

// campaign builds a core campaign over the rig with the option's
// protocol parameters.
func (r *rig) campaign(opts Options) *core.Campaign {
	c := core.NewCampaign(r.task, r.ds)
	c.Config.Repeats = opts.Repeats
	c.Config.Seed = opts.Seed
	return c
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (quoting cells that
// contain commas or quotes), for plotting the figures externally.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(cell, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// f1 formats a float with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f0 formats a float with no decimals.
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }

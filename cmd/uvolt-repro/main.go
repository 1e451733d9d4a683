// Command uvolt-repro regenerates every table and figure of the paper's
// evaluation section in one run and writes the report to stdout (or a
// file with -o). The report holds no timing, so two runs with the same
// flags write the same bytes; how long it took goes to stderr.
// EXPERIMENTS.md records one such run against the paper's numbers.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"fpgauv"
)

func main() {
	out := flag.String("o", "", "write the report to this file instead of stdout")
	images := flag.Int("images", 48, "evaluation images per benchmark")
	repeats := flag.Int("repeats", 5, "repeats per measurement (paper: 10)")
	tiny := flag.Bool("tiny", false, "use the tiny model preset (faster)")
	flag.Parse()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "uvolt-repro:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	opts := fpgauv.ExperimentOptions{Images: *images, Repeats: *repeats}
	if *tiny {
		opts.Preset = 0 // models.Tiny
	} else {
		opts.Preset = 1 // models.Small
	}

	fmt.Fprintf(w, "fpgauv reproduction report (preset=%v images=%d repeats=%d)\n",
		opts.Preset, *images, *repeats)
	fmt.Fprintf(w, "paper: Salami et al., DSN 2020 — reduced-voltage FPGA CNN acceleration\n\n")
	start := time.Now()
	if err := fpgauv.RunAllExperiments(opts, w); err != nil {
		fmt.Fprintln(os.Stderr, "uvolt-repro:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "report generated in %s\n", time.Since(start).Round(time.Millisecond))
}

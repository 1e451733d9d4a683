package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"
)

// Verdicts -compare prints.
const (
	verdictOK         = "ok"
	verdictIdentical  = "identical"
	verdictUnresolved = "unresolved"
	verdictRegression = "REGRESSION"
	verdictInfo       = "-"
)

var errRegression = errors.New("at least one end-to-end metric is worse than its bound")

// side is one side of a comparison: one or more result files of the same
// commit. With several, the median is compared and their spread is known.
type side []resultFile

func loadSide(arg string) (side, error) {
	var s side
	for _, path := range strings.Split(arg, ",") {
		f, err := readResultFile(path)
		if err != nil {
			return s, err
		}
		s = append(s, f)
	}
	return s, nil
}

// values collects one metric of one workload across the side's files.
func (s side) values(workload, name string) []float64 {
	var vs []float64
	for _, f := range s {
		if m, ok := f.Workloads[workload].Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// judge decides one end-to-end metric. a is the baseline side, b the
// candidate. Worsening is measured against the bound — a share of the
// baseline median, or an absolute amount — and a spread wider than the
// bound makes the pair unresolved rather than unchanged, unless every
// candidate run reads better than every baseline run.
func judge(mt metric, a, b []float64) string {
	am, bm := median(a), median(b)
	worse := bm - am
	if mt.Better == higher {
		worse = am - bm
	}
	if !mt.Abs {
		if am == 0 {
			return verdictInfo
		}
		worse /= math.Abs(am)
	}
	if am == bm && len(a) == 1 && len(b) == 1 {
		return verdictIdentical
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if (mt.Better == lower && y >= x) || (mt.Better == higher && y <= x) {
				allBetter = false
			}
		}
	}
	spread := math.Max(quartileSpread(a), quartileSpread(b))
	switch {
	case !mt.Abs && spread > mt.Bound && !allBetter:
		return verdictUnresolved
	case worse > mt.Bound:
		return verdictRegression
	}
	return verdictOK
}

// runCompare prints, per workload and metric, both sides' medians, the
// relative difference and the metric's bound, and fails when an
// end-to-end metric got worse by more than its bound.
func runCompare(args []string, w io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: bench -compare a.json[,a2.json...] b.json[,b2.json...]")
	}
	a, err := loadSide(args[0])
	if err != nil {
		return err
	}
	b, err := loadSide(args[1])
	if err != nil {
		return err
	}
	pa, pb := a[0].Provenance, b[0].Provenance
	fmt.Fprintf(w, "# a: %s on %s (%d runs, seed %d, %gs)\n", pa.Commit, pa.CPUModel, len(a), pa.Seed, pa.Seconds)
	fmt.Fprintf(w, "# b: %s on %s (%d runs, seed %d, %gs)\n", pb.Commit, pb.CPUModel, len(b), pb.Seed, pb.Seconds)
	if pa.CPUModel != pb.CPUModel || pa.GOMAXPROCS != pb.GOMAXPROCS || pa.Seconds != pb.Seconds {
		fmt.Fprintln(w, "# warning: the two sides differ in host or phase length; host-time numbers do not compare")
	}

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tdiff\tbound\tverdict")
	regressed := false
	for _, wl := range append(workloadNames(), wlLayers) {
		names := metricSet{}
		for _, f := range append(append(side(nil), a...), b...) {
			for name := range f.Workloads[wl].Metrics {
				if _, ok := metricByName[name]; ok {
					names[name] = value{}
				}
			}
		}
		for _, name := range names.names() {
			av, bv := a.values(wl, name), b.values(wl, name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			mt := metricByName[name]
			am, bm := median(av), median(bv)
			diff := "-"
			if am != 0 {
				diff = fmt.Sprintf("%+.2f%%", 100*(bm-am)/math.Abs(am))
			}
			bound, verdict := "-", verdictInfo
			if mt.Bound > 0 || mt.Abs {
				bound = fmt.Sprintf("%g%%", 100*mt.Bound)
				if mt.Abs {
					bound = fmt.Sprintf("%g %s", mt.Bound, mt.Unit)
				}
				verdict = judge(mt, av, bv)
				regressed = regressed || verdict == verdictRegression
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%s\t%s\n", wl, name, am, bm, diff, bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressed {
		return errRegression
	}
	return nil
}

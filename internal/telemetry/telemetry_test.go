package telemetry

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"fpgauv/internal/obs"
)

// TestSeriesRawTail: the raw ring keeps the newest RawCap samples in
// order across wraparound.
func TestSeriesRawTail(t *testing.T) {
	s := newSeries(8, 4, 4)
	for i := 0; i < 20; i++ {
		s.Observe(int64(i)*1e9, float64(i))
	}
	pts := s.Points(ResRaw, 0, nil)
	if len(pts) != 8 {
		t.Fatalf("raw tail length = %d, want 8", len(pts))
	}
	for i, p := range pts {
		want := float64(12 + i)
		if p.Last != want || p.Count != 1 || p.Min != want || p.Max != want {
			t.Fatalf("point %d = %+v, want value %.0f", i, p, want)
		}
	}
	if got := s.Points(ResRaw, 3, nil); len(got) != 3 || got[0].Last != 17 {
		t.Fatalf("limited tail = %+v, want last 3 starting at 17", got)
	}
}

// TestSeriesRollup: samples aggregate into 10s buckets with correct
// min/max/mean/last, and the open partial bucket is visible.
func TestSeriesRollup(t *testing.T) {
	s := newSeries(64, 8, 8)
	// Bucket 0 ([0,10s)): values 1, 5, 3. Bucket 1: value 7 (open).
	s.Observe(1e9, 1)
	s.Observe(4e9, 5)
	s.Observe(9e9, 3)
	s.Observe(11e9, 7)
	pts := s.Points(Res10s, 0, nil)
	if len(pts) != 2 {
		t.Fatalf("rollup points = %d, want 2 (closed + open)", len(pts))
	}
	closed := pts[0]
	if closed.Min != 1 || closed.Max != 5 || closed.Last != 3 || closed.Count != 3 {
		t.Fatalf("closed bucket = %+v", closed)
	}
	if got, want := closed.Mean, 3.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("closed bucket mean = %g, want %g", got, want)
	}
	if closed.AtNS != 0 {
		t.Fatalf("closed bucket AtNS = %d, want 0", closed.AtNS)
	}
	open := pts[1]
	if open.Last != 7 || open.Count != 1 || open.AtNS != 10e9 {
		t.Fatalf("open bucket = %+v", open)
	}

	// The 1m level still has everything in its single open bucket.
	mpts := s.Points(Res1m, 0, nil)
	if len(mpts) != 1 || mpts[0].Count != 4 || mpts[0].Min != 1 || mpts[0].Max != 7 {
		t.Fatalf("1m rollup = %+v", mpts)
	}
}

// TestSeriesRollupWraparound: closed rollup buckets cycle through a
// bounded ring.
func TestSeriesRollupWraparound(t *testing.T) {
	s := newSeries(4, 3, 3)
	for i := 0; i < 10; i++ { // one sample per 10s bucket
		s.Observe(int64(i)*10e9+1e9, float64(i))
	}
	pts := s.Points(Res10s, 0, nil)
	// Ring of 3 closed + 1 open = newest 4 buckets: values 6..9.
	if len(pts) != 4 {
		t.Fatalf("rollup tail = %d points, want 4", len(pts))
	}
	for i, p := range pts {
		if want := float64(6 + i); p.Last != want {
			t.Fatalf("bucket %d last = %g, want %g", i, p.Last, want)
		}
	}
}

// TestSeriesPointsLimit: a read of n points returns min(n, retained) at
// every resolution, and a rollup read's newest point is the open bucket
// — n=1 included, which once returned the whole ring.
func TestSeriesPointsLimit(t *testing.T) {
	const rawCap, cap10s, cap1m = 8, 4, 3
	s := newSeries(rawCap, cap10s, cap1m)
	const secs = 400 // 1 Hz: 39 closed 10s buckets, 6 closed 1m buckets, both open
	for i := 0; i < secs; i++ {
		s.Observe(int64(i)*1e9, float64(i))
	}
	for _, tc := range []struct {
		res      string
		ring     int
		retained int
		openAtNS int64
	}{
		{ResRaw, rawCap, rawCap, -1},
		{Res10s, cap10s, cap10s + 1, 390e9},
		{Res1m, cap1m, cap1m + 1, 360e9},
	} {
		for _, n := range []int{1, 2, 3, tc.ring, tc.ring + 1} {
			pts := s.Points(tc.res, n, nil)
			if len(pts) != min(n, tc.retained) {
				t.Errorf("%s n=%d: %d points, want %d", tc.res, n, len(pts), min(n, tc.retained))
				continue
			}
			newest := pts[len(pts)-1]
			if newest.Last != secs-1 {
				t.Errorf("%s n=%d: newest point last = %g, want %d", tc.res, n, newest.Last, secs-1)
			}
			if tc.openAtNS >= 0 && newest.AtNS != tc.openAtNS {
				t.Errorf("%s n=%d: newest point at %d ns, want the open bucket at %d", tc.res, n, newest.AtNS, tc.openAtNS)
			}
		}
	}
}

// TestDigestQuantileError: quantiles come back within the bucket
// geometry's relative error bound on a known distribution.
func TestDigestQuantileError(t *testing.T) {
	var d Digest
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := math.Exp(rng.NormFloat64()) * 10e-3 // log-normal around 10ms
		vals = append(vals, v)
		d.Observe(v)
	}
	if d.Count() != 20000 {
		t.Fatalf("count = %d", d.Count())
	}
	exact := func(q float64) float64 {
		s := append([]float64(nil), vals...)
		for i := range s {
			for j := i + 1; j < len(s); j++ {
				if s[j] < s[i] {
					s[i], s[j] = s[j], s[i]
				}
			}
			if float64(i+1) >= q*float64(len(s)) {
				return s[i]
			}
		}
		return s[len(s)-1]
	}
	// Growth factor bound: one bucket is a factor of ~1.016; allow 2
	// buckets of slack (~3.3% relative) for rank-vs-edge rounding.
	const tol = 0.035
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, want := d.Quantile(q), exact(q)
		if math.Abs(got-want)/want > tol {
			t.Fatalf("q%.3f: digest %.6f vs exact %.6f (err %.2f%%)", q, got, want,
				100*math.Abs(got-want)/want)
		}
	}
	snap := d.Snapshot()
	if snap.P50 <= 0 || snap.P99 < snap.P50 || snap.P999 < snap.P99 {
		t.Fatalf("snapshot quantiles not monotone: %+v", snap)
	}
}

// TestDigestEdges: empty, nil, clamping and sum behavior.
func TestDigestEdges(t *testing.T) {
	var nilD *Digest
	nilD.Observe(1)
	if nilD.Quantile(0.5) != 0 || nilD.Count() != 0 || nilD.Sum() != 0 {
		t.Fatal("nil digest must read zero")
	}
	var d Digest
	if d.Quantile(0.99) != 0 {
		t.Fatal("empty digest quantile must be 0")
	}
	d.Observe(1e9) // clamps to the overflow bucket
	d.Observe(0)   // clamps to bucket 0
	if d.Count() != 2 {
		t.Fatalf("count = %d", d.Count())
	}
	if got := d.Quantile(1); got < digestMax {
		t.Fatalf("overflow quantile = %g, want >= %g", got, float64(digestMax))
	}
	if math.Abs(d.Sum()-1e9) > 1 {
		t.Fatalf("sum = %g", d.Sum())
	}
}

// sloHarness builds a tracker on a fake clock feeding a real journal.
func sloHarness(t *testing.T, cfg SLOConfig) (*SLOTracker, *obs.Journal, *int64) {
	t.Helper()
	jr := obs.NewJournal(128)
	tr := NewSLOTracker(cfg, jr)
	now := new(int64)
	tr.nowNS = func() int64 { return *now }
	return tr, jr, now
}

// TestSLOBurnMultiWindow: a failure spike trips the fast window
// immediately but journals only once both windows burn; recovery
// re-arms the alert.
func TestSLOBurnMultiWindow(t *testing.T) {
	cfg := SLOConfig{
		AvailabilityTarget: 0.9, // 10% budget: easy to burn deterministically
		FastWindow:         time.Minute,
		SlowWindow:         10 * time.Minute,
		BurnThreshold:      4,
	}
	tr, jr, now := sloHarness(t, cfg)

	// Seed the slow window with plenty of successes so early failures
	// burn the fast window without reaching 4x on the slow one.
	for i := 0; i < 600; i++ {
		*now += int64(time.Second)
		tr.Record(true, time.Millisecond)
	}
	st := tr.Snapshot()
	if st.Objectives[0].Burning {
		t.Fatal("burning with zero failures")
	}

	// 100% failures for 30s: fast window burns >= 4x quickly, slow
	// window lags behind.
	fastBurning := false
	for i := 0; i < 30; i++ {
		*now += int64(time.Second)
		tr.Record(false, time.Millisecond)
		s := tr.Snapshot().Objectives[0]
		if s.Windows[0].BurnRate >= 4 && s.Windows[1].BurnRate < 4 {
			fastBurning = true
			if s.Burning {
				t.Fatal("alert fired on fast window alone")
			}
		}
	}
	if !fastBurning {
		t.Fatal("test never saw fast-only burn; tune the traffic shape")
	}

	// Keep failing until the slow window crosses too: alert rises once.
	for i := 0; i < 400 && !tr.Snapshot().Objectives[0].Burning; i++ {
		*now += int64(time.Second)
		tr.Record(false, time.Millisecond)
	}
	av := tr.Snapshot().Objectives[0]
	if !av.Burning {
		t.Fatal("alert never fired with sustained failures")
	}
	if av.BurnEvents != 1 {
		t.Fatalf("burn events = %d, want exactly 1 rising edge", av.BurnEvents)
	}
	burnEvents := 0
	evs, _, _ := jr.Since(0, 0)
	for _, e := range evs {
		if e.Kind == obs.EvSLOBurn {
			burnEvents++
		}
	}
	if burnEvents != 1 {
		t.Fatalf("journaled slo_burn events = %d, want 1", burnEvents)
	}

	// Recover: successes push both windows back under threshold, then a
	// second incident journals a second event.
	for i := 0; i < 1200; i++ {
		*now += int64(time.Second)
		tr.Record(true, time.Millisecond)
	}
	if s := tr.Snapshot().Objectives[0]; s.Burning {
		t.Fatal("still burning after full recovery")
	}
	for i := 0; i < 1200 && !tr.Snapshot().Objectives[0].Burning; i++ {
		*now += int64(time.Second)
		tr.Record(false, time.Millisecond)
	}
	if got := tr.Snapshot().Objectives[0].BurnEvents; got != 2 {
		t.Fatalf("burn events after second incident = %d, want 2", got)
	}
}

// TestSLOLatencyObjective: slow-but-successful requests burn the
// latency objective, not availability.
func TestSLOLatencyObjective(t *testing.T) {
	cfg := SLOConfig{
		LatencyTarget: 100 * time.Millisecond,
		LatencyGoal:   0.9,
		FastWindow:    time.Minute,
		SlowWindow:    10 * time.Minute,
		BurnThreshold: 2,
	}
	tr, _, now := sloHarness(t, cfg)
	for i := 0; i < 1200; i++ {
		*now += int64(500 * time.Millisecond)
		tr.Record(true, 500*time.Millisecond) // success, but 5x over target
	}
	st := tr.Snapshot()
	if st.Objectives[0].Burning {
		t.Fatal("availability burning on successful requests")
	}
	if !st.Objectives[1].Burning {
		t.Fatalf("latency objective not burning: %+v", st.Objectives[1])
	}
	if st.Objectives[1].BurnEvents < 1 {
		t.Fatal("latency burn never journaled")
	}
}

// TestSLODefaults: zero config sanitizes to the documented defaults.
func TestSLODefaults(t *testing.T) {
	tr := NewSLOTracker(SLOConfig{}, nil)
	c := tr.Config()
	if c.AvailabilityTarget != 0.999 || c.LatencyTarget != 250*time.Millisecond ||
		c.LatencyGoal != 0.99 || c.FastWindow != time.Minute ||
		c.SlowWindow != 10*time.Minute || c.BurnThreshold != 4 {
		t.Fatalf("defaults = %+v", c)
	}
	tr.Record(true, time.Millisecond) // nil journal must not panic
	var nilT *SLOTracker
	nilT.Record(true, 0)
	if s := nilT.Snapshot(); len(s.Objectives) != 0 {
		t.Fatal("nil tracker snapshot must be empty")
	}
}

// TestScoreBoardThresholds walks the scorer through the documented
// grading boundaries.
func TestScoreBoardThresholds(t *testing.T) {
	// Thresholds: drift 5/10, corrected 25/100, crashes 3.
	cases := []struct {
		name  string
		in    HealthSignals
		state string
	}{
		{"pristine", HealthSignals{}, HealthOK},
		{"small drift", HealthSignals{VminDriftMV: 4.9}, HealthOK},
		{"watch drift", HealthSignals{VminDriftMV: 5}, HealthWatch},
		{"degraded drift", HealthSignals{VminDriftMV: 10}, HealthDegraded},
		{"corrected steady", HealthSignals{CorrectedRate: 50, CorrectedPriorRate: 50}, HealthOK},
		{"corrected rising", HealthSignals{CorrectedRate: 50, CorrectedPriorRate: 10}, HealthWatch},
		{"corrected degraded", HealthSignals{CorrectedRate: 100}, HealthDegraded},
		{"uncorrectable", HealthSignals{UncorrectableRate: 0.5}, HealthDegraded},
		{"crashes", HealthSignals{RecentCrashes: 3}, HealthWatch},
	}
	for _, tc := range cases {
		h := ScoreBoard(tc.in)
		if h.State != tc.state {
			t.Errorf("%s: state = %s, want %s (%+v)", tc.name, h.State, tc.state, h)
		}
		if h.State != HealthOK && len(h.Reasons) == 0 {
			t.Errorf("%s: flagged without reasons", tc.name)
		}
		if h.Score < 0 || h.Score > 100 {
			t.Errorf("%s: score %g out of range", tc.name, h.Score)
		}
	}
	// Uncorrectable traffic clamps an otherwise-clean score to <= 40.
	if h := ScoreBoard(HealthSignals{UncorrectableRate: 0.1}); h.Score > 40 {
		t.Fatalf("uncorrectable clamp: score = %g, want <= 40", h.Score)
	}
	// Pristine board scores exactly 100.
	if h := ScoreBoard(HealthSignals{}); h.Score != 100 {
		t.Fatalf("pristine score = %g, want 100", h.Score)
	}
}

// TestFlightRecorderWraparound: the ring retains the newest N, Recent
// honors limits and ordering, Total keeps counting.
func TestFlightRecorderWraparound(t *testing.T) {
	f := NewFlightRecorder(3)
	for i := 1; i <= 5; i++ {
		pm := f.Record(Postmortem{Board: fmt.Sprintf("b%d", i)})
		if pm.ID != int64(i) {
			t.Fatalf("record %d: ID = %d", i, pm.ID)
		}
		if pm.AtNS == 0 || pm.At.IsZero() {
			t.Fatalf("record %d: timestamps not stamped", i)
		}
	}
	if f.Total() != 5 {
		t.Fatalf("total = %d, want 5", f.Total())
	}
	recent := f.Recent(0)
	if len(recent) != 3 {
		t.Fatalf("retained = %d, want 3", len(recent))
	}
	for i, want := range []string{"b5", "b4", "b3"} {
		if recent[i].Board != want {
			t.Fatalf("recent[%d] = %s, want %s", i, recent[i].Board, want)
		}
	}
	if one := f.Recent(1); len(one) != 1 || one[0].Board != "b5" {
		t.Fatalf("recent(1) = %+v", one)
	}
	var nilF *FlightRecorder
	nilF.Record(Postmortem{})
	if nilF.Recent(0) != nil || nilF.Total() != 0 {
		t.Fatal("nil flight recorder must read empty")
	}
}

// TestRecorderRates: cumulative counters differentiate into rates once
// primed; the first sample records zero rates.
func TestRecorderRates(t *testing.T) {
	r := NewRecorder(Config{Interval: -1}, []string{"b0"})
	r.Observe(0, 1e9, BoardSample{Corrected: 100, Served: 10})
	r.Observe(0, 2e9, BoardSample{Corrected: 150, Served: 30})
	r.Observe(0, 4e9, BoardSample{Corrected: 150, Served: 40})

	pts := r.Points("b0", SeriesECCCorrected, ResRaw, 0)
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Last != 0 {
		t.Fatalf("unprimed rate = %g, want 0", pts[0].Last)
	}
	if pts[1].Last != 50 { // 50 words over 1s
		t.Fatalf("corrected rate = %g, want 50", pts[1].Last)
	}
	if pts[2].Last != 0 {
		t.Fatalf("steady corrected rate = %g, want 0", pts[2].Last)
	}
	tp := r.Points("b0", SeriesThroughput, ResRaw, 0)
	if tp[1].Last != 20 || tp[2].Last != 5 { // 20 rps then 10/2s
		t.Fatalf("throughput = %g, %g, want 20, 5", tp[1].Last, tp[2].Last)
	}

	// Unknown lookups return nil, not panics.
	if r.Points("nope", SeriesVCCINT, ResRaw, 0) != nil {
		t.Fatal("unknown board must return nil")
	}
	if r.Points("b0", "nope", ResRaw, 0) != nil {
		t.Fatal("unknown series must return nil")
	}
	if r.Points("b0", SeriesVCCINT, "2h", 0) != nil {
		t.Fatal("unknown resolution must return nil")
	}
}

// TestRecorderHealthSignals: the recorder's windowed extraction feeds
// the scorer with recent-vs-prior corrected rates and crash deltas.
func TestRecorderHealthSignals(t *testing.T) {
	r := NewRecorder(Config{Interval: -1, HealthWindow: 4}, []string{"b0"})
	at := int64(0)
	obsv := func(corrected, crashes int64) {
		at += 1e9
		r.Observe(0, at, BoardSample{Corrected: corrected, Crashes: crashes})
	}
	// Prior window: ~10/s corrected. Recent window: ~100/s, plus 2
	// crashes inside the combined window.
	var c int64
	for i := 0; i < 5; i++ {
		c += 10
		obsv(c, 0)
	}
	for i := 0; i < 4; i++ {
		c += 100
		obsv(c, 2)
	}
	sig := r.HealthSignalsFor(0, 3.5, 12)
	if sig.Board != "b0" || sig.VminDriftMV != 3.5 || sig.MarginMV != 12 {
		t.Fatalf("passthrough fields wrong: %+v", sig)
	}
	if sig.CorrectedRate <= sig.CorrectedPriorRate {
		t.Fatalf("recent rate %.1f not above prior %.1f", sig.CorrectedRate, sig.CorrectedPriorRate)
	}
	if sig.CorrectedRate < 50 {
		t.Fatalf("recent rate %.1f, want ~100", sig.CorrectedRate)
	}
	if sig.RecentCrashes != 2 {
		t.Fatalf("recent crashes = %d, want 2", sig.RecentCrashes)
	}
}

// TestRecorderWindow: the postmortem window covers every series.
func TestRecorderWindow(t *testing.T) {
	r := NewRecorder(Config{Interval: -1}, []string{"b0", "b1"})
	for i := 0; i < 5; i++ {
		r.Observe(0, int64(i+1)*1e9, BoardSample{VCCINTmV: 850})
	}
	w := r.Window(0, 3)
	if len(w) != len(SeriesNames) {
		t.Fatalf("window series = %d, want %d", len(w), len(SeriesNames))
	}
	if pts := w[SeriesVCCINT]; len(pts) != 3 || pts[2].Last != 850 {
		t.Fatalf("vccint window = %+v", pts)
	}
	if w := r.Window(9, 3); w != nil {
		t.Fatal("out-of-range window must be nil")
	}
}

// TestMergePostmortems: cross-pool merge is newest-first and bounded.
func TestMergePostmortems(t *testing.T) {
	a := []Postmortem{{ID: 1, AtNS: 10}, {ID: 2, AtNS: 30}}
	b := []Postmortem{{ID: 3, AtNS: 20}, {ID: 4, AtNS: 40}}
	got := MergePostmortems(3, a, b)
	if len(got) != 3 {
		t.Fatalf("merged = %d, want 3", len(got))
	}
	for i, want := range []int64{40, 30, 20} {
		if got[i].AtNS != want {
			t.Fatalf("merged[%d].AtNS = %d, want %d", i, got[i].AtNS, want)
		}
	}
	if got := MergePostmortems(0, a); len(got) != 2 {
		t.Fatalf("unbounded merge = %d, want 2", len(got))
	}
}

// TestConfigSanitize: documented defaults and the HealthWindow cap.
func TestConfigSanitize(t *testing.T) {
	c := Config{}.Sanitize()
	if c.Interval != 50*time.Millisecond || c.RawCap != 512 || c.HealthWindow != 16 {
		t.Fatalf("defaults = %+v", c)
	}
	if got := (Config{RawCap: 8, HealthWindow: 100}).Sanitize().HealthWindow; got != 4 {
		t.Fatalf("health window cap = %d, want RawCap/2 = 4", got)
	}
	if got := (Config{Interval: -1}).Sanitize().Interval; got != -1 {
		t.Fatal("negative interval (sampler disabled) must survive sanitize")
	}
}

// TestObserveZeroAlloc pins the steady-state sampling path at zero heap
// allocations per board sample.
func TestObserveZeroAlloc(t *testing.T) {
	r := NewRecorder(Config{Interval: -1}, []string{"b0"})
	at := int64(0)
	s := BoardSample{VCCINTmV: 850, TempC: 40, Corrected: 1}
	r.Observe(0, 1, s) // prime
	allocs := testing.AllocsPerRun(200, func() {
		at += 50e6
		s.Corrected++
		s.Served++
		r.Observe(0, at, s)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f per sample, want 0", allocs)
	}
}

// TestDigestObserveZeroAlloc pins the latency ingest path at zero heap
// allocations.
func TestDigestObserveZeroAlloc(t *testing.T) {
	var d Digest
	allocs := testing.AllocsPerRun(200, func() { d.Observe(0.012) })
	if allocs != 0 {
		t.Fatalf("Digest.Observe allocates %.1f, want 0", allocs)
	}
}

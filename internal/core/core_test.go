package core

import (
	"math"
	"testing"

	"fpgauv/internal/board"
	"fpgauv/internal/dnndk"
	"fpgauv/internal/models"
	"fpgauv/internal/silicon"
)

// newCampaign builds a VGGNet Tiny campaign on the given sample with a
// fast test configuration.
func newCampaign(t *testing.T, sample board.SampleID, images int) *Campaign {
	t.Helper()
	brd := board.MustNew(sample)
	rt, err := dnndk.NewRuntime(brd, 3)
	if err != nil {
		t.Fatal(err)
	}
	bench, err := models.New("VGGNet", models.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	k, err := dnndk.Quantize(bench, dnndk.DefaultQuantizeOptions())
	if err != nil {
		t.Fatal(err)
	}
	task, err := rt.LoadKernel(k)
	if err != nil {
		t.Fatal(err)
	}
	ds := bench.MakeDataset(images, 7)
	if err := task.PlantLabels(ds, bench.TargetAccPct, 3); err != nil {
		t.Fatal(err)
	}
	c := NewCampaign(task, ds)
	c.Config.Repeats = 3
	return c
}

func TestDetectRegionsSampleB(t *testing.T) {
	c := newCampaign(t, board.SampleB, 30)
	reg, points, err := c.DetectRegions()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no sweep points")
	}
	// Sample B: Vmin ≈ 570, Vcrash ≈ 538 (detected at the 5 mV grid).
	if math.Abs(reg.VminMV-570) > 5 {
		t.Errorf("Vmin = %.0f, want ≈570", reg.VminMV)
	}
	if math.Abs(reg.VcrashMV-535) > 5 {
		t.Errorf("Vcrash = %.0f, want ≈535 (first 5 mV step below 538)", reg.VcrashMV)
	}
	if gb := reg.GuardbandPct(); math.Abs(gb-33) > 1.5 {
		t.Errorf("guardband = %.1f%%, want ≈33%%", gb)
	}
	if reg.CriticalMV() < 20 || reg.CriticalMV() > 45 {
		t.Errorf("critical region = %.0f mV, want ≈30 mV", reg.CriticalMV())
	}
	if reg.String() == "" {
		t.Error("empty region string")
	}
	// The board must be rebooted and restored after the campaign.
	if c.Board().Hung() {
		t.Error("board left hung after campaign")
	}
	if c.Board().VCCINTmV() != 850 {
		t.Errorf("board voltage not restored: %.0f", c.Board().VCCINTmV())
	}
}

func TestSweepShapeMatchesFig4(t *testing.T) {
	c := newCampaign(t, board.SampleB, 30)
	c.Config.VStartMV = 850
	c.Config.VStepMV = 10
	points, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	last := points[len(points)-1]
	if !last.Crashed {
		t.Fatal("sweep must end in a crash point")
	}
	// Power monotonically decreases down to Vmin; efficiency rises.
	baseline := points[0]
	if math.Abs(baseline.PowerW-12.59) > 0.4 {
		t.Errorf("baseline power = %.2f", baseline.PowerW)
	}
	var atVmin *Point
	for i := range points {
		if points[i].VCCINTmV == 570 {
			atVmin = &points[i]
		}
	}
	if atVmin == nil {
		t.Fatal("sweep missing 570 mV point")
	}
	if atVmin.AccuracyPct != baseline.AccuracyPct {
		t.Errorf("accuracy must be intact at Vmin: %.2f vs %.2f", atVmin.AccuracyPct, baseline.AccuracyPct)
	}
	gain := atVmin.GOPsPerW / baseline.GOPsPerW
	if math.Abs(gain-2.6) > 0.15 {
		t.Errorf("efficiency gain at Vmin = %.2f, want ≈2.6 (Fig. 5)", gain)
	}
	prev := math.Inf(1)
	for _, pt := range points {
		if pt.Crashed {
			break
		}
		if pt.PowerW >= prev {
			t.Fatalf("power must fall monotonically: %.3f W at %.0f mV", pt.PowerW, pt.VCCINTmV)
		}
		prev = pt.PowerW
	}
}

func TestAccuracyDegradesOnlyBelowVmin(t *testing.T) {
	c := newCampaign(t, board.SampleB, 30)
	c.Config.VStartMV = 600
	points, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	baseline := points[0].AccuracyPct
	sawLoss := false
	for _, pt := range points {
		if pt.Crashed {
			break
		}
		if pt.VCCINTmV >= 570 && pt.MACFaults > 0 {
			t.Errorf("faults inside guardband at %.0f mV", pt.VCCINTmV)
		}
		if pt.VCCINTmV < 565 && pt.AccuracyPct < baseline-2 {
			sawLoss = true
		}
	}
	if !sawLoss {
		t.Error("no accuracy loss observed in the critical region")
	}
}

func TestFmaxSearchStaircase(t *testing.T) {
	c := newCampaign(t, board.SampleB, 20)
	c.Config.Repeats = 2
	grid := silicon.DefaultFmaxGridMHz()
	cases := []struct {
		v    float64
		want float64
	}{
		{570, 333},
		{565, 300},
		{555, 250},
		{540, 200},
	}
	for _, tc := range cases {
		res, err := c.FmaxSearch(tc.v, grid)
		if err != nil {
			t.Fatal(err)
		}
		if res.FmaxMHz != tc.want {
			t.Errorf("Fmax(%.0f mV) = %.0f, want %.0f (Table 2)", tc.v, res.FmaxMHz, tc.want)
		}
	}
	// Below Vcrash the search reports 0 (board crashes).
	res, err := c.FmaxSearch(532, grid)
	if err != nil {
		t.Fatal(err)
	}
	if res.FmaxMHz != 0 {
		t.Errorf("Fmax below Vcrash = %.0f, want 0", res.FmaxMHz)
	}
	c.Board().Reboot()
}

func TestRegionsVaryAcrossSamples(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-board sweep")
	}
	vmins := map[board.SampleID]float64{}
	vcrash := map[board.SampleID]float64{}
	for _, s := range []board.SampleID{board.SampleA, board.SampleB, board.SampleC} {
		c := newCampaign(t, s, 20)
		c.Config.Repeats = 2
		c.Config.VStartMV = 620
		reg, _, err := c.DetectRegions()
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		vmins[s] = reg.VminMV
		vcrash[s] = reg.VcrashMV
	}
	// ΔVmin ≈ 31 mV, ΔVcrash ≈ 18 mV across samples (§1.1), within the
	// 5 mV measurement grid.
	dVmin := vmins[board.SampleC] - vmins[board.SampleA]
	if math.Abs(dVmin-31) > 6 {
		t.Errorf("ΔVmin = %.0f, want ≈31", dVmin)
	}
	dVcrash := vcrash[board.SampleC] - vcrash[board.SampleA]
	if math.Abs(dVcrash-18) > 6 {
		t.Errorf("ΔVcrash = %.0f, want ≈18", dVcrash)
	}
}

func TestConfigSanitize(t *testing.T) {
	c := Config{}
	s := c.sanitize()
	if s.VStartMV != 850 || s.VEndMV != 500 || s.VStepMV != 5 || s.Repeats != 10 {
		t.Fatalf("defaults: %+v", s)
	}
}

// TestCriticalSweepReplayGolden pins a sweep through the critical region
// to the per-point values full execution produces: MAC fault events,
// correct predictions over the three repeats, and the worst repeat's.
// Faulty passes replay each image's fault-free trace until its first
// fault, and that must not move a single draw or prediction.
func TestCriticalSweepReplayGolden(t *testing.T) {
	c := newCampaign(t, board.SampleB, 30)
	c.Config.VStartMV = 600
	points, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		mv              float64
		faults          int64
		correct, minCor int // of 3×30 predictions; of the worst repeat's 30
	}{
		{600, 0, 78, 26}, {595, 0, 78, 26}, {590, 0, 78, 26}, {585, 0, 78, 26},
		{580, 0, 78, 26}, {575, 0, 78, 26}, {570, 0, 78, 26}, {565, 73, 74, 24},
		{560, 1257, 51, 16}, {555, 6454, 21, 3}, {550, 21933, 14, 2},
		{545, 56949, 11, 2}, {540, 124477, 13, 4},
	}
	if len(points) != len(want)+1 || !points[len(want)].Crashed || points[len(want)].VCCINTmV != 535 {
		t.Fatalf("sweep took %d points, want %d then a crash at 535 mV", len(points), len(want))
	}
	for i, w := range want {
		p := points[i]
		correct := int(math.Round(p.AccuracyPct * 90 / 100))
		minCor := int(math.Round(p.MinAccuracyPct * 30 / 100))
		if p.VCCINTmV != w.mv || p.MACFaults != w.faults || correct != w.correct || minCor != w.minCor {
			t.Errorf("%.0f mV: %d faults, %d/90 correct (worst %d/30); want %.0f mV: %d, %d/90 (%d/30)",
				p.VCCINTmV, p.MACFaults, correct, minCor, w.mv, w.faults, w.correct, w.minCor)
		}
	}
}

package fleet

import (
	"context"
	"testing"
	"time"

	"fpgauv/internal/silicon"
)

// eccTestConfig is the deterministic stepping setup for the VCCBRAM
// governor tests: no background loops anywhere (governor ticks and scrub
// passes are driven explicitly), a canary sized so near-onset fault
// statistics are sharp, and the default 5 mV BRAM step.
func eccTestConfig(boards int, eccOn bool) Config {
	cfg := testConfig(boards)
	cfg.MonitorInterval = -1
	cfg.ECC = ECCConfig{Enabled: eccOn, ScrubInterval: -1}
	cfg.Governor = GovernorConfig{
		Interval:        -1,
		StepMV:          2,
		MarginMV:        4,
		ProbeImages:     16,
		BRAM:            true,
		BRAMStepMV:      5,
		BRAMMarginMV:    5,
		CorrectedBudget: 64,
	}
	return cfg
}

// The acceptance scenario of the ECC subsystem: with SECDED enabled the
// governed fleet settles at a strictly lower VCCBRAM than with it
// disabled — the corrected-error rate is a leading indicator the
// unprotected loop does not have — at equal Top-1 accuracy, because
// every event the protected loop tolerated was corrected before the
// consumer saw it.
func TestECCGovernorSettlesDeeperAtEqualAccuracy(t *testing.T) {
	off := newTestPool(t, eccTestConfig(1, false))
	on := newTestPool(t, eccTestConfig(1, true))
	if err := off.HoldTemperatureC(0, 34); err != nil {
		t.Fatal(err)
	}
	if err := on.HoldTemperatureC(0, 34); err != nil {
		t.Fatal(err)
	}

	const ticks = 220
	settleMember(off, 0, ticks)
	settleMember(on, 0, ticks)

	offB := off.Status().Boards[0]
	onB := on.Status().Boards[0]
	if !offB.Governor.BRAM.Settled || !onB.Governor.BRAM.Settled {
		t.Fatalf("BRAM loops did not settle in %d ticks: off=%+v on=%+v",
			ticks, offB.Governor.BRAM, onB.Governor.BRAM)
	}
	if onB.OperatingBRAMMV >= offB.OperatingBRAMMV {
		t.Fatalf("ECC-on settled at %.0f mV VCCBRAM, want strictly below ECC-off %.0f mV",
			onB.OperatingBRAMMV, offB.OperatingBRAMMV)
	}
	// Both loops must have undercut the unprotected onset region start.
	onset := silicon.DefaultParams().BRAMVminMV
	if offB.OperatingBRAMMV >= onset {
		t.Errorf("ECC-off never descended below the %.0f mV onset: %.0f mV", onset, offB.OperatingBRAMMV)
	}
	// The protected loop's probes tolerated corrected words (the leading
	// indicator); the unprotected loop never sees any.
	if onB.Governor.BRAM.CanaryCorrected == 0 {
		t.Error("ECC-on loop recorded no corrected canary words")
	}
	if offB.Governor.BRAM.CanaryCorrected != 0 {
		t.Errorf("ECC-off loop recorded %d corrected words", offB.Governor.BRAM.CanaryCorrected)
	}
	if onB.ECC == nil || onB.ECC.Corrected == 0 {
		t.Fatalf("ECC-on board counters empty: %+v", onB.ECC)
	}

	// Equal Top-1 accuracy at the settled points, under pinned fault
	// streams: deeper VCCBRAM costs nothing because everything the
	// protected fleet absorbed was corrected.
	const seed = 41
	resOff, err := off.Classify(context.Background(), Request{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	resOn, err := on.Classify(context.Background(), Request{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if resOn.AccuracyPct != resOff.AccuracyPct {
		t.Fatalf("accuracy at settled points: ECC-on %.2f%% vs ECC-off %.2f%%",
			resOn.AccuracyPct, resOff.AccuracyPct)
	}
	if resOn.ECC.Silent != 0 || resOn.ECC.Detected != 0 {
		t.Errorf("harmful events served at the settled point: %+v", resOn.ECC)
	}
}

// SECDED outcome counts must be bit-exactly deterministic under a pinned
// request seed.
func TestECCServedCountsDeterministic(t *testing.T) {
	cfg := eccTestConfig(1, true)
	cfg.Governor = GovernorConfig{Interval: -1} // no governing: rails move manually
	p := newTestPool(t, cfg)
	m := p.members[0]
	m.mu.Lock()
	err := m.setVCCBRAM(505)
	m.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	const seed = 7
	a, err := p.Classify(context.Background(), Request{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Classify(context.Background(), Request{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if a.ECC != b.ECC || a.BRAMFaults != b.BRAMFaults || a.AccuracyPct != b.AccuracyPct {
		t.Fatalf("pinned-seed passes diverged: %+v/%d/%.2f vs %+v/%d/%.2f",
			a.ECC, a.BRAMFaults, a.AccuracyPct, b.ECC, b.BRAMFaults, b.AccuracyPct)
	}
	if a.ECC.Total() == 0 {
		t.Fatalf("no SECDED events at 505 mV VCCBRAM: %+v", a)
	}
}

// Scrubbing must restore a bit-exact fault-free weight image: corrupt
// the deployed weights directly (the persistent-fault scenario the
// executor's restore models), scrub, and require fault-free reference
// outputs to match the pre-corruption ones.
func TestScrubRestoresWeightImage(t *testing.T) {
	cfg := eccTestConfig(1, true)
	cfg.Governor = GovernorConfig{Interval: -1}
	p := newTestPool(t, cfg)
	m := p.members[0]

	cleanRun := func() ([]int, [][]float32) {
		m.mu.Lock()
		defer m.mu.Unlock()
		rngs := m.scratch.BatchRNGs(m.ds.Len())
		for i := range rngs {
			rngs[i].Seed(int64(i) + 1)
		}
		results, err := m.task.InferBatch(m.scratch, m.ds.Inputs, rngs)
		if err != nil {
			t.Fatal(err)
		}
		preds := make([]int, len(results))
		probs := make([][]float32, len(results))
		for i, r := range results {
			preds[i] = r.Pred
			probs[i] = append([]float32(nil), r.Probs.Data()...)
		}
		return preds, probs
	}
	refPreds, refProbs := cleanRun()

	// Persistent corruption: a single-bit fault and a multi-bit smear in
	// the first weight tensor.
	m.mu.Lock()
	var corrupted bool
	for i := range m.kernel.Nodes {
		if w := m.kernel.Nodes[i].WQ; w != nil && len(w.Data) >= 16 {
			w.Data[0] ^= 1 << 2
			w.Data[8] ^= 1 << 1
			w.Data[9] ^= 1 << 6
			w.Data[10] ^= 1 << 3
			corrupted = true
			break
		}
	}
	m.mu.Unlock()
	if !corrupted {
		t.Fatal("no weight tensor large enough to corrupt")
	}

	rep := p.ScrubNow()
	if rep.Corrected != 1 || rep.Reloaded != 1 {
		t.Fatalf("scrub report %+v, want 1 corrected + 1 reloaded", rep)
	}
	afterPreds, afterProbs := cleanRun()
	for i := range refPreds {
		if afterPreds[i] != refPreds[i] {
			t.Fatalf("image %d: pred %d after scrub, want %d", i, afterPreds[i], refPreds[i])
		}
		for j := range refProbs[i] {
			if afterProbs[i][j] != refProbs[i][j] {
				t.Fatalf("image %d: probs[%d] drifted after scrub", i, j)
			}
		}
	}

	st := p.Status().Boards[0].ECC
	if st == nil || st.ScrubPasses != 1 || st.ScrubCorrected != 1 || st.ScrubReloaded != 1 {
		t.Errorf("scrub counters not surfaced: %+v", st)
	}
	if st.Words == 0 {
		t.Error("protected image size not reported")
	}
}

// Crash recovery must restore the governed VCCBRAM point exactly like
// the governed VCCINT point.
func TestECCCrashRecoveryRestoresBRAMPoint(t *testing.T) {
	p := newTestPool(t, eccTestConfig(1, true))
	if err := p.HoldTemperatureC(0, 34); err != nil {
		t.Fatal(err)
	}
	settleMember(p, 0, 220)
	governed := p.Status().Boards[0].OperatingBRAMMV
	if governed >= silicon.VnomMV {
		t.Fatalf("BRAM governor never descended: %.0f mV", governed)
	}

	if err := p.SetVCCINTmV(0, 500); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Classify(context.Background(), Request{}); err != nil {
		t.Fatal(err)
	}
	st := p.Status().Boards[0]
	if !nearMV(st.VCCBRAMmV, governed) {
		t.Errorf("recovery restored VCCBRAM %.1f mV, want the governed %.0f mV", st.VCCBRAMmV, governed)
	}
}

// Runtime toggling through the pool API: disabling protection flips the
// per-board policies and the status snapshot together.
func TestECCToggleAndScrubInterval(t *testing.T) {
	cfg := eccTestConfig(1, true)
	cfg.Governor = GovernorConfig{Interval: -1}
	p := newTestPool(t, cfg)
	if !p.ECCEnabled() {
		t.Fatal("pool should start protected")
	}
	p.SetECCEnabled(false)
	if p.ECCEnabled() || p.Status().ECC.Enabled {
		t.Fatal("disable did not take")
	}
	p.SetECCEnabled(true)
	if !p.Status().Boards[0].ECC.Enabled {
		t.Fatal("re-enable did not reach the board snapshot")
	}
	p.SetScrubInterval(123 * time.Millisecond)
	if got := p.Status().ECC.ScrubIntervalMS; got != 123 {
		t.Fatalf("scrub interval %v ms, want 123", got)
	}
}

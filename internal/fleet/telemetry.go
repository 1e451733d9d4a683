package fleet

import (
	"fmt"
	"math"
	"time"

	"fpgauv/internal/obs"
	"fpgauv/internal/telemetry"
)

// startTelemetry assembles the pool's time-series recorder (one entry
// per board plus a pool-level pseudo-board named after the pool) and
// starts the background sampler unless the interval is negative.
func (p *Pool) startTelemetry(cfg telemetry.Config) {
	ids := make([]string, 0, len(p.members)+1)
	for _, m := range p.members {
		ids = append(ids, m.id)
	}
	ids = append(ids, p.Name())
	p.telem = telemetry.NewRecorder(cfg, ids)
	p.telemCfg = p.telem.Config()
	p.synthCorr = make([]float64, len(p.members))
	for _, m := range p.members {
		m.onCrash = p.recordPostmortem
	}
	if cfg.Interval > 0 {
		p.wg.Add(1)
		go p.telemetryLoop(cfg.Interval)
	}
}

// telemetryLoop samples the whole pool on the configured interval and
// re-scores board health every healthEvery ticks.
func (p *Pool) telemetryLoop(interval time.Duration) {
	defer p.wg.Done()
	const healthEvery = 8
	t := time.NewTicker(interval)
	defer t.Stop()
	tick := 0
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.SampleTelemetry()
			tick++
			if tick%healthEvery == 0 {
				for _, m := range p.members {
					p.boardHealth(m)
				}
			}
		}
	}
}

// SampleTelemetry takes one telemetry sample of every board plus the
// pool aggregate, stamped on the shared monotonic clock. Zero heap
// allocations in steady state: board accessors are internally
// synchronized value reads and every ring was allocated at assembly.
// The background sampler calls this on its interval; tests and the
// benchmark drive it explicitly.
func (p *Pool) SampleTelemetry() {
	now := obs.NowNS()
	dt := 0.0
	if p.synthStampNS > 0 {
		dt = float64(now-p.synthStampNS) / 1e9
	}
	p.synthStampNS = now

	enabled := p.gov != nil && p.gov.enabled.Load()
	var agg telemetry.BoardSample
	agg.GovernorSettled = true
	minMargin := math.Inf(1)
	for i, m := range p.members {
		// Injected corrected-ECC ramp: accumulate rate x elapsed into the
		// sampler-owned accumulator (single goroutine; no lock needed).
		if rate := m.injCorrRate(); rate > 0 && dt > 0 {
			p.synthCorr[i] += rate * dt
		}
		s := p.boardSample(m, enabled, p.synthCorr[i])
		p.telem.Observe(i, now, s)

		agg.VCCINTmV += s.VCCINTmV
		agg.VCCBRAMmV += s.VCCBRAMmV
		agg.TempC += s.TempC
		agg.PowerW += s.PowerW
		agg.Corrected += s.Corrected
		agg.Uncorrectable += s.Uncorrectable
		agg.Crashes += s.Crashes
		agg.Served += s.Served
		agg.GovernorSettled = agg.GovernorSettled && s.GovernorSettled
		minMargin = math.Min(minMargin, s.VminMarginMV)
	}
	if n := float64(len(p.members)); n > 0 {
		agg.VCCINTmV /= n
		agg.VCCBRAMmV /= n
		agg.TempC /= n
		agg.VminMarginMV = minMargin
	}
	agg.Sheds = p.shed.Load()
	agg.QueueDepth = p.queue.Len()
	p.telem.Observe(len(p.members), now, agg)
}

// boardSample reads one board's instantaneous telemetry. Every accessor
// is internally synchronized — the sampler never takes the member lock,
// so a board mid-classification (or mid-recovery) samples just as fast.
func (p *Pool) boardSample(m *member, govEnabled bool, synthCorr float64) telemetry.BoardSample {
	op, bramOp := m.opMV(), m.bramOpMV()
	c := m.prot.Counts()
	drift := m.vminDriftMV()
	return telemetry.BoardSample{
		VCCINTmV:        m.brd.VCCINTmV(),
		VCCBRAMmV:       m.brd.VCCBRAMmV(),
		TempC:           m.brd.DieTempC(),
		PowerW:          m.brd.PowerBreakdownAtRails(op, bramOp).TotalW,
		Corrected:       c.Corrected + int64(synthCorr),
		Uncorrectable:   c.Detected + c.Silent,
		Crashes:         m.crashes.Load(),
		Served:          m.served.Load(),
		GovernorSettled: !govEnabled || m.gov == nil || m.gov.settledFlag.Load(),
		VminMarginMV:    op - (m.regions.VminMV + drift),
	}
}

// Telemetry returns the pool's time-series recorder (nil only before
// assembly completes, which callers never observe).
func (p *Pool) Telemetry() *telemetry.Recorder { return p.telem }

// LatencyDigest is the pool's job-latency quantile digest: every
// successfully served job's board-visit time, p50/p99/p999 with bounded
// relative error.
func (p *Pool) LatencyDigest() *telemetry.Digest { return &p.jobLatency }

// Postmortems returns the most recent retained crash postmortems,
// newest first (limit <= 0: all retained).
func (p *Pool) Postmortems(limit int) []telemetry.Postmortem {
	return p.telem.Flight().Recent(limit)
}

// boardHealth scores one board's margin-regression signals and journals
// degraded-state transitions.
func (p *Pool) boardHealth(m *member) telemetry.BoardHealth {
	drift := m.vminDriftMV()
	margin := m.opMV() - (m.regions.VminMV + drift)
	sig := p.telem.HealthSignalsFor(m.idx, drift, margin)
	h := telemetry.ScoreBoard(sig)
	newState := int32(0)
	switch h.State {
	case telemetry.HealthWatch:
		newState = 1
	case telemetry.HealthDegraded:
		newState = 2
	}
	old := m.healthState.Swap(newState)
	if newState == 2 && old != 2 {
		m.event(obs.EvHealthDegraded, m.brd.VCCINTmV(),
			fmt.Sprintf("health score %.0f: %s", h.Score, joinReasons(h.Reasons)))
	}
	return h
}

func joinReasons(rs []string) string {
	out := ""
	for i, r := range rs {
		if i > 0 {
			out += "; "
		}
		out += r
	}
	return out
}

// BoardHealth scores every board (index order) — the /v1/fleet/health
// payload for one pool.
func (p *Pool) BoardHealth() []telemetry.BoardHealth {
	out := make([]telemetry.BoardHealth, 0, len(p.members))
	for _, m := range p.members {
		out = append(out, p.boardHealth(m))
	}
	return out
}

// DegradedBoards counts boards the health scorer currently grades
// degraded — the cluster router's candidate-ordering penalty signal.
func (p *Pool) DegradedBoards() int {
	n := 0
	for _, m := range p.members {
		if p.boardHealth(m).State == telemetry.HealthDegraded {
			n++
		}
	}
	return n
}

// InjectMarginDrift arms the margin-regression chaos knob on one board
// (idx < 0: all boards): the board's Vmin estimate is biased upward by
// driftMV and the telemetry sampler synthesizes correctedPerSec
// corrected-ECC words per second — the paper's aging/temperature margin
// erosion on demand, without waiting for silicon to age. Zero/zero
// disarms. The injected drift feeds the vmin_margin_mv series and the
// health scorer; it never moves a rail, so serving is unaffected.
func (p *Pool) InjectMarginDrift(idx int, driftMV, correctedPerSec float64) error {
	targets, err := p.targets(idx)
	if err != nil {
		return err
	}
	if driftMV < 0 {
		driftMV = 0
	}
	if correctedPerSec < 0 {
		correctedPerSec = 0
	}
	for _, m := range targets {
		m.driftBits.Store(math.Float64bits(driftMV))
		m.injCorrBits.Store(math.Float64bits(correctedPerSec))
	}
	return nil
}

// recordPostmortem is the crash flight recorder hook, called from
// noteCrash with the member lock held: snapshot the journal tail, the
// board's raw telemetry window and the active trace id into a retained
// postmortem. The recorder's own lock orders it against the sampler;
// the sampler never takes the member lock, so there is no cycle.
func (p *Pool) recordPostmortem(m *member) {
	pm := telemetry.Postmortem{
		Board:     m.id,
		TraceID:   m.activeTrace,
		VCCINTmV:  m.brd.VCCINTmV(),
		VCCBRAMmV: m.brd.VCCBRAMmV(),
		TempC:     m.brd.DieTempC(),
		Crashes:   m.crashes.Load(),
		Events:    p.journal.Tail(telemetry.JournalTail),
		Window:    p.telem.Window(m.idx, telemetry.WindowPoints),
	}
	pm = p.telem.Flight().Record(pm)
	m.event(obs.EvPostmortem, pm.VCCINTmV,
		fmt.Sprintf("postmortem %d retained (%d journal events, trace %q)", pm.ID, len(pm.Events), pm.TraceID))
}

package fleet

import (
	"fmt"
	"sync/atomic"
	"time"

	"fpgauv/internal/ecc"
	"fpgauv/internal/obs"
)

// ECCConfig parameterizes the fleet's BRAM SECDED protection and frame
// scrubbing — the paper's mitigation path for reduced-voltage BRAM
// operation. Protection and scrubbing are assembled on every pool (the
// counters and the scrubber's golden image cost almost nothing); Enabled
// only controls whether the DPUs decode reads through the codec.
type ECCConfig struct {
	// Enabled starts the pool with SECDED decoding active. Runtime
	// toggling goes through SetECCEnabled or POST /v1/fleet/ecc.
	Enabled bool
	// ScrubInterval is the per-board frame-scrub period (default 250 ms;
	// negative builds the scrubbers but starts no background loops —
	// ScrubNow then drives passes explicitly, the mode tests use).
	ScrubInterval time.Duration
}

// sanitize fills scrub defaults.
func (c ECCConfig) sanitize() ECCConfig {
	if c.ScrubInterval == 0 {
		c.ScrubInterval = 250 * time.Millisecond
	}
	return c
}

// eccState is the pool-level side of the protection subsystem: the
// runtime-tunable scrub interval (nanoseconds, atomic so the loops
// re-read it every lap).
type eccState struct {
	scrubNS atomic.Int64
}

// ECCEnabled reports whether SECDED decoding is active. The per-board
// policies are toggled together, so board 0 speaks for the pool.
func (p *Pool) ECCEnabled() bool {
	return len(p.members) > 0 && p.members[0].prot.Enabled()
}

// SetECCEnabled toggles SECDED decoding on every board. Disabling keeps
// the counters; the executors fall back to the unprotected raw-flip
// path on their next pass.
func (p *Pool) SetECCEnabled(on bool) {
	for _, m := range p.members {
		m.prot.SetEnabled(on)
	}
}

// ScrubInterval returns the present frame-scrub period.
func (p *Pool) ScrubInterval() time.Duration {
	return time.Duration(p.eccSt.scrubNS.Load())
}

// SetScrubInterval re-targets the frame-scrub period at runtime. It
// cannot start loops a negative-interval pool never launched; for those,
// drive ScrubNow explicitly.
func (p *Pool) SetScrubInterval(iv time.Duration) {
	if iv > 0 {
		p.eccSt.scrubNS.Store(int64(iv))
	}
}

// ScrubNow runs one synchronous frame-scrub pass on every board,
// regardless of the background loops — the deterministic stepping mode
// tests and the HTTP endpoint's scrub_now use. It returns the aggregate
// repair report.
func (p *Pool) ScrubNow() ecc.ScrubReport {
	var total ecc.ScrubReport
	for _, m := range p.members {
		rep := p.scrubTick(m)
		total.Scanned += rep.Scanned
		total.Corrected += rep.Corrected
		total.Reloaded += rep.Reloaded
	}
	return total
}

// startScrubbers launches one frame-scrub loop per board when the
// interval is positive.
func (p *Pool) startScrubbers(cfg ECCConfig) {
	p.eccSt.scrubNS.Store(int64(cfg.ScrubInterval))
	if cfg.ScrubInterval <= 0 {
		return
	}
	for _, m := range p.members {
		p.wg.Add(1)
		go p.scrubLoop(m)
	}
}

// scrubLoop is one board's background frame scrubber. The interval is
// re-read every lap so runtime tuning takes effect.
func (p *Pool) scrubLoop(m *member) {
	defer p.wg.Done()
	for {
		iv := time.Duration(p.eccSt.scrubNS.Load())
		if iv <= 0 {
			iv = 250 * time.Millisecond
		}
		t := time.NewTimer(iv)
		select {
		case <-p.stop:
			t.Stop()
			return
		case <-t.C:
		}
		p.scrubTick(m)
	}
}

// scrubTick runs one frame-scrub pass on one board, under the member
// lock: the scrubber walks the same weight tensors an in-flight pass
// corrupts in place, so it must be serialized against the executor like
// every other accelerator operation. A hung board is skipped — its
// weight image is about to be re-deployed from scratch anyway.
func (p *Pool) scrubTick(m *member) ecc.ScrubReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.brd.Hung() {
		return ecc.ScrubReport{}
	}
	rep := m.scrub.Scrub(m.prot)
	// Only passes that repaired words are journaled: clean passes at the
	// scrub rate would wrap the bounded ring in minutes and drown the
	// crash/recovery chains it exists to replay. Pass counts live in the
	// uvolt_scrub_* metrics.
	if rep.Corrected+rep.Reloaded > 0 {
		m.event(obs.EvScrub, m.brd.VCCBRAMmV(),
			fmt.Sprintf("scanned=%d corrected=%d reloaded=%d", rep.Scanned, rep.Corrected, rep.Reloaded))
	}
	return rep
}

// BoardECCStatus is one board's protection and scrubbing snapshot.
type BoardECCStatus struct {
	// Enabled mirrors the board's SECDED decode switch.
	Enabled bool `json:"enabled"`
	// Corrected/Detected/Silent are the lifetime SECDED outcome
	// counters across every pass on this board.
	ecc.Counts
	// ScrubPasses/ScrubScanned/ScrubCorrected/ScrubReloaded are the
	// frame scrubber's lifetime counters (words reloaded came from the
	// DDR golden copy after an uncorrectable syndrome).
	ScrubPasses    int64 `json:"scrub_passes"`
	ScrubScanned   int64 `json:"scrub_scanned"`
	ScrubCorrected int64 `json:"scrub_corrected"`
	ScrubReloaded  int64 `json:"scrub_reloaded"`
	// Words is the protected image size in 64-bit words.
	Words int64 `json:"words"`
	// Reruns counts served passes discarded and run again on a fresh
	// fault draw because SECDED flagged an uncorrectable word in them.
	Reruns int64 `json:"reruns"`
}

// ECCStatus is the pool-wide protection snapshot.
type ECCStatus struct {
	Enabled         bool    `json:"enabled"`
	ScrubIntervalMS float64 `json:"scrub_interval_ms"`
	// Aggregates across all boards.
	ecc.Counts
	ScrubPasses    int64 `json:"scrub_passes"`
	ScrubCorrected int64 `json:"scrub_corrected"`
	ScrubReloaded  int64 `json:"scrub_reloaded"`
}

// boardECCStatus snapshots one member's protection state.
func (m *member) boardECCStatus() *BoardECCStatus {
	passes, scanned, corrected, reloaded := m.scrub.Stats()
	return &BoardECCStatus{
		Enabled:        m.prot.Enabled(),
		Counts:         m.prot.Counts(),
		ScrubPasses:    passes,
		ScrubScanned:   scanned,
		ScrubCorrected: corrected,
		ScrubReloaded:  reloaded,
		Words:          m.scrub.Words(),
		Reruns:         m.eccReruns.Load(),
	}
}

// eccSummary aggregates per-board snapshots into the pool-wide view.
func (p *Pool) eccSummary(boards []BoardStatus) *ECCStatus {
	st := &ECCStatus{
		Enabled:         p.ECCEnabled(),
		ScrubIntervalMS: float64(p.ScrubInterval().Microseconds()) / 1000,
	}
	for _, b := range boards {
		if b.ECC == nil {
			continue
		}
		st.Counts.Add(b.ECC.Counts)
		st.ScrubPasses += b.ECC.ScrubPasses
		st.ScrubCorrected += b.ECC.ScrubCorrected
		st.ScrubReloaded += b.ECC.ScrubReloaded
	}
	return st
}

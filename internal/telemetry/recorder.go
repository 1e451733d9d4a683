package telemetry

import (
	"sort"
	"sync"
	"time"
)

// Series names recorded per board. The pool-level pseudo-board (named
// after the pool) records the same set with board-only series at zero.
const (
	SeriesVCCINT       = "vccint_mv"
	SeriesVCCBRAM      = "vccbram_mv"
	SeriesTemp         = "temp_c"
	SeriesPower        = "power_w"
	SeriesECCCorrected = "ecc_corrected_rate"
	SeriesECCUncorrect = "ecc_uncorrectable_rate"
	SeriesCrashes      = "crashes_total"
	SeriesSheds        = "sheds_total"
	SeriesQueueDepth   = "queue_depth"
	SeriesThroughput   = "throughput_rps"
	SeriesGovSettled   = "governor_settled"
	SeriesVminMarginMV = "vmin_margin_mv"
)

// SeriesNames enumerates every recorded series in exposition order.
var SeriesNames = []string{
	SeriesVCCINT, SeriesVCCBRAM, SeriesTemp, SeriesPower,
	SeriesECCCorrected, SeriesECCUncorrect, SeriesCrashes, SeriesSheds,
	SeriesQueueDepth, SeriesThroughput, SeriesGovSettled, SeriesVminMarginMV,
}

// series indices (must match SeriesNames order).
const (
	idxVCCINT = iota
	idxVCCBRAM
	idxTemp
	idxPower
	idxECCCorrected
	idxECCUncorrect
	idxCrashes
	idxSheds
	idxQueueDepth
	idxThroughput
	idxGovSettled
	idxVminMargin
	numSeries
)

// ValidSeries reports whether name is a recorded series.
func ValidSeries(name string) bool {
	return seriesIndex(name) >= 0
}

func seriesIndex(name string) int {
	for i, n := range SeriesNames {
		if n == name {
			return i
		}
	}
	return -1
}

// Config sizes the recorder and tunes the subsystems built on it.
type Config struct {
	// Interval is the sampling period (default 50ms; negative disables
	// the background sampler — SampleNow/explicit observation still
	// works, which is how tests drive deterministic histories).
	Interval time.Duration
	// RawCap sizes the per-series raw ring (default 512 samples).
	RawCap int
	// HealthWindow is how many raw samples the health scorer's recent
	// window spans (default 16; the prior window is the 16 before it).
	HealthWindow int
	// SLO declares the serving objectives (consumed by the HTTP layer's
	// tracker, carried here so one config block configures the
	// subsystem end to end).
	SLO SLOConfig
}

const (
	// cap10s and cap1m size the per-series rollup rings: 360 10-second
	// buckets = 1h, 240 1-minute buckets = 4h.
	cap10s = 360
	cap1m  = 240
	// postmortemCap bounds the flight recorder.
	postmortemCap = 32
)

// JournalTail and WindowPoints size each crash postmortem's journal
// snapshot (events) and telemetry window (raw points per series).
const (
	JournalTail  = 64
	WindowPoints = 64
)

// Sanitize fills defaults (exported: fleet sanitizes its embedded
// config).
func (c Config) Sanitize() Config {
	if c.Interval == 0 {
		c.Interval = 50 * time.Millisecond
	}
	if c.RawCap <= 0 {
		c.RawCap = 512
	}
	if c.HealthWindow <= 0 {
		c.HealthWindow = 16
	}
	if c.HealthWindow > c.RawCap/2 {
		c.HealthWindow = c.RawCap / 2
	}
	c.SLO = c.SLO.sanitize()
	return c
}

// BoardSample is one board's instantaneous reading. Counter fields
// (Corrected, Uncorrectable, Crashes, Sheds, Served) are cumulative;
// the recorder differentiates them into rates between samples.
type BoardSample struct {
	VCCINTmV  float64
	VCCBRAMmV float64
	TempC     float64
	PowerW    float64
	// Corrected/Uncorrectable are cumulative ECC word counts.
	Corrected     int64
	Uncorrectable int64
	// Crashes and Sheds are cumulative; recorded as levels (the series
	// shows the counter, the health scorer differences the window).
	Crashes int64
	Sheds   int64
	// QueueDepth is an instantaneous backlog gauge.
	QueueDepth int
	// Served is the cumulative served-request counter, differentiated
	// into throughput_rps.
	Served int64
	// GovernorSettled is 1 when the board's voltage loops are quiescent.
	GovernorSettled bool
	// VminMarginMV is operating point minus estimated Vmin.
	VminMarginMV float64
}

// boardRec is one board's recorded history.
type boardRec struct {
	id     string
	series [numSeries]*Series
	last   BoardSample
	lastNS int64
	primed bool
}

// Recorder records fixed-board telemetry histories. The board set is
// fixed at construction: Observe is indexed, lock-bounded and
// allocation-free, so a sampler can run at tight intervals forever.
type Recorder struct {
	cfg    Config
	mu     sync.Mutex
	boards []*boardRec
	index  map[string]int
	flight *FlightRecorder
}

// NewRecorder builds a recorder for the given board ids (order fixes
// the Observe index).
func NewRecorder(cfg Config, boardIDs []string) *Recorder {
	cfg = cfg.Sanitize()
	r := &Recorder{
		cfg:    cfg,
		index:  make(map[string]int, len(boardIDs)),
		flight: NewFlightRecorder(postmortemCap),
	}
	for i, id := range boardIDs {
		br := &boardRec{id: id}
		for s := range br.series {
			br.series[s] = newSeries(cfg.RawCap, cap10s, cap1m)
		}
		r.boards = append(r.boards, br)
		r.index[id] = i
	}
	return r
}

// Config returns the sanitized configuration.
func (r *Recorder) Config() Config { return r.cfg }

// Boards lists the recorded board ids in index order.
func (r *Recorder) Boards() []string {
	out := make([]string, len(r.boards))
	for i, br := range r.boards {
		out[i] = br.id
	}
	return out
}

// Lookup resolves a board id to its Observe index.
func (r *Recorder) Lookup(board string) (int, bool) {
	i, ok := r.index[board]
	return i, ok
}

// Flight returns the crash flight recorder.
func (r *Recorder) Flight() *FlightRecorder { return r.flight }

// Observe records one board sample at atNS. Allocation-free: every ring
// and rollup accumulator was allocated at construction.
func (r *Recorder) Observe(idx int, atNS int64, s BoardSample) {
	if r == nil || idx < 0 || idx >= len(r.boards) {
		return
	}
	r.mu.Lock()
	br := r.boards[idx]
	dt := float64(atNS-br.lastNS) / 1e9
	var corrRate, uncorrRate, rps float64
	if br.primed && dt > 0 {
		corrRate = rate(s.Corrected-br.last.Corrected, dt)
		uncorrRate = rate(s.Uncorrectable-br.last.Uncorrectable, dt)
		rps = rate(s.Served-br.last.Served, dt)
	}
	settled := 0.0
	if s.GovernorSettled {
		settled = 1
	}
	br.series[idxVCCINT].Observe(atNS, s.VCCINTmV)
	br.series[idxVCCBRAM].Observe(atNS, s.VCCBRAMmV)
	br.series[idxTemp].Observe(atNS, s.TempC)
	br.series[idxPower].Observe(atNS, s.PowerW)
	br.series[idxECCCorrected].Observe(atNS, corrRate)
	br.series[idxECCUncorrect].Observe(atNS, uncorrRate)
	br.series[idxCrashes].Observe(atNS, float64(s.Crashes))
	br.series[idxSheds].Observe(atNS, float64(s.Sheds))
	br.series[idxQueueDepth].Observe(atNS, float64(s.QueueDepth))
	br.series[idxThroughput].Observe(atNS, rps)
	br.series[idxGovSettled].Observe(atNS, settled)
	br.series[idxVminMargin].Observe(atNS, s.VminMarginMV)
	br.last = s
	br.lastNS = atNS
	br.primed = true
	r.mu.Unlock()
}

func rate(delta int64, dt float64) float64 {
	if delta < 0 {
		delta = 0
	}
	return float64(delta) / dt
}

// Points returns the most recent n points of one board series at the
// named resolution (oldest first). Unknown board/series/resolution
// returns nil.
func (r *Recorder) Points(board, series, res string, n int) []Point {
	idx, ok := r.Lookup(board)
	si := seriesIndex(series)
	if !ok || si < 0 || !ValidRes(res) {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.boards[idx].series[si].Points(res, n, nil)
}

// Window snapshots one board's raw tail across every series — the
// flight recorder's pre-crash telemetry window.
func (r *Recorder) Window(idx int, n int) map[string][]Point {
	if idx < 0 || idx >= len(r.boards) {
		return nil
	}
	out := make(map[string][]Point, numSeries)
	r.mu.Lock()
	defer r.mu.Unlock()
	br := r.boards[idx]
	for s, name := range SeriesNames {
		out[name] = br.series[s].Points(ResRaw, n, nil)
	}
	return out
}

// healthWindow extracts one board's scorer signals from the raw rings:
// recent/prior corrected-rate means, the recent uncorrectable mean, and
// the crash-counter delta over the combined window. Caller holds mu.
func (r *Recorder) healthWindow(br *boardRec, scratch []Point) (recent, prior, uncorr float64, crashes int64) {
	w := r.cfg.HealthWindow
	pts := br.series[idxECCCorrected].raw.tail(2*w, scratch[:0])
	if len(pts) == 0 {
		return
	}
	split := len(pts) - w
	if split < 0 {
		split = 0
	}
	recent = meanLast(pts[split:])
	prior = meanLast(pts[:split])
	pts = br.series[idxECCUncorrect].raw.tail(w, scratch[:0])
	uncorr = meanLast(pts)
	pts = br.series[idxCrashes].raw.tail(2*w, scratch[:0])
	if len(pts) > 1 {
		crashes = int64(pts[len(pts)-1].Last - pts[0].Last)
	}
	return
}

func meanLast(pts []Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	var sum float64
	for _, p := range pts {
		sum += p.Last
	}
	return sum / float64(len(pts))
}

// HealthSignalsFor extracts the recorder-derived scorer inputs for one
// board (drift and margin are the caller's — they come from the fleet's
// margin estimator, not the history).
func (r *Recorder) HealthSignalsFor(idx int, driftMV, marginMV float64) HealthSignals {
	if idx < 0 || idx >= len(r.boards) {
		return HealthSignals{}
	}
	scratch := make([]Point, 0, 2*r.cfg.HealthWindow)
	r.mu.Lock()
	br := r.boards[idx]
	recent, prior, uncorr, crashes := r.healthWindow(br, scratch)
	r.mu.Unlock()
	return HealthSignals{
		Board:              br.id,
		VminDriftMV:        driftMV,
		MarginMV:           marginMV,
		CorrectedRate:      recent,
		CorrectedPriorRate: prior,
		UncorrectableRate:  uncorr,
		RecentCrashes:      crashes,
	}
}

// MergePostmortems merges per-recorder postmortem sets newest-first —
// the cluster aggregation helper.
func MergePostmortems(limit int, sets ...[]Postmortem) []Postmortem {
	var all []Postmortem
	for _, s := range sets {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].AtNS > all[j].AtNS })
	if limit > 0 && len(all) > limit {
		all = all[:limit]
	}
	return all
}

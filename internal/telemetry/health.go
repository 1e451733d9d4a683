package telemetry

import "fmt"

// Board health states. Ordered: ok < watch < degraded.
const (
	HealthOK       = "ok"
	HealthWatch    = "watch"
	HealthDegraded = "degraded"
)

// Health scorer thresholds.
const (
	// vminDriftWatchMV / vminDriftDegradedMV grade estimated Vmin drift
	// versus the characterization baseline: the paper measures mV-scale
	// Vmin movement per °C, so double-digit drift means the static
	// guardband assumption is stale.
	vminDriftWatchMV    float64 = 5
	vminDriftDegradedMV float64 = 10
	// correctedWatchRate / correctedDegradedRate grade the corrected-ECC
	// word rate (words/s): a rising corrected rate at a fixed rail is the
	// paper's aging/temperature early-warning signal — the errors SECDED
	// still absorbs today become uncorrectable as the margin keeps
	// eroding.
	correctedWatchRate    float64 = 25
	correctedDegradedRate float64 = 100
	// crashWatch is the crash count inside the recorder's raw window
	// that flags a board.
	crashWatch int64 = 3
)

// HealthSignals are one board's scorer inputs, extracted from the
// recorder's history and the fleet's margin estimate.
type HealthSignals struct {
	Board string
	// VminDriftMV is the estimated upward drift of the board's Vmin
	// since characterization (mV; 0 = baseline holds).
	VminDriftMV float64
	// CorrectedRate is the recent corrected-ECC word rate (words/s);
	// CorrectedPriorRate the preceding window's rate, so Trend > 0
	// means the corrected rate is rising at a fixed rail.
	CorrectedRate      float64
	CorrectedPriorRate float64
	// UncorrectableRate is the recent detected-uncorrectable word rate.
	UncorrectableRate float64
	// RecentCrashes counts crashes inside the recorder's raw window.
	RecentCrashes int64
	// MarginMV is the present operating margin (operating point minus
	// estimated Vmin), reported through for the health view.
	MarginMV float64
}

// BoardHealth is one board's scored health.
type BoardHealth struct {
	Board string `json:"board"`
	// State is "ok", "watch" or "degraded". The cluster router demotes
	// degraded boards' pools in candidate ordering.
	State string `json:"state"`
	// Score is 0..100 (100 = pristine):
	//   100 − min(50, 5·drift_mV)
	//       − min(30, 30·corrected_rate/degraded_rate)
	//       − min(10, 10·trend/watch_rate)
	//       − min(20, 10·recent_crashes)
	// with any uncorrectable traffic clamping the score to at most 40.
	Score float64 `json:"score"`
	// VminDriftMV / CorrectedRate / CorrectedTrend / RecentCrashes echo
	// the scorer inputs behind the verdict.
	VminDriftMV    float64 `json:"vmin_drift_mv"`
	MarginMV       float64 `json:"margin_mv"`
	CorrectedRate  float64 `json:"corrected_rate"`
	CorrectedTrend float64 `json:"corrected_trend"`
	RecentCrashes  int64   `json:"recent_crashes"`
	// Reasons lists the triggered thresholds (empty when ok).
	Reasons []string `json:"reasons,omitempty"`
}

// ScoreBoard grades one board's margin-regression signals.
func ScoreBoard(in HealthSignals) BoardHealth {
	trend := in.CorrectedRate - in.CorrectedPriorRate
	h := BoardHealth{
		Board:          in.Board,
		State:          HealthOK,
		VminDriftMV:    in.VminDriftMV,
		MarginMV:       in.MarginMV,
		CorrectedRate:  in.CorrectedRate,
		CorrectedTrend: trend,
		RecentCrashes:  in.RecentCrashes,
	}

	score := 100.0
	score -= clampF(5*in.VminDriftMV, 0, 50)
	score -= clampF(30*in.CorrectedRate/correctedDegradedRate, 0, 30)
	if trend > 0 {
		score -= clampF(10*trend/correctedWatchRate, 0, 10)
	}
	score -= clampF(10*float64(in.RecentCrashes), 0, 20)
	if in.UncorrectableRate > 0 && score > 40 {
		score = 40
	}
	h.Score = score

	degraded := func(reason string) {
		h.State = HealthDegraded
		h.Reasons = append(h.Reasons, reason)
	}
	watch := func(reason string) {
		if h.State == HealthOK {
			h.State = HealthWatch
		}
		h.Reasons = append(h.Reasons, reason)
	}
	switch {
	case in.VminDriftMV >= vminDriftDegradedMV:
		degraded(fmt.Sprintf("vmin drift %.1f mV >= %.1f mV", in.VminDriftMV, vminDriftDegradedMV))
	case in.VminDriftMV >= vminDriftWatchMV:
		watch(fmt.Sprintf("vmin drift %.1f mV >= %.1f mV", in.VminDriftMV, vminDriftWatchMV))
	}
	switch {
	case in.CorrectedRate >= correctedDegradedRate:
		degraded(fmt.Sprintf("corrected-ECC rate %.1f/s >= %.1f/s", in.CorrectedRate, correctedDegradedRate))
	case in.CorrectedRate >= correctedWatchRate && trend > 0:
		watch(fmt.Sprintf("corrected-ECC rate %.1f/s rising (+%.1f/s)", in.CorrectedRate, trend))
	}
	if in.UncorrectableRate > 0 {
		degraded(fmt.Sprintf("uncorrectable-ECC rate %.2f/s", in.UncorrectableRate))
	}
	if in.RecentCrashes >= crashWatch {
		watch(fmt.Sprintf("%d crashes in window", in.RecentCrashes))
	}
	if h.State == HealthOK && score < 60 {
		watch(fmt.Sprintf("health score %.0f < 60", score))
	}
	return h
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

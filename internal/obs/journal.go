package obs

import (
	"context"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// Event kinds emitted by the fleet layer. The uvolt_events_total{kind=}
// counters and the journal's slog mirror use the same strings.
const (
	// EvCrash: a board hung under reduced voltage (or injected fault).
	EvCrash = "crash"
	// EvReboot: the crashed board finished its power-on reset.
	EvReboot = "reboot"
	// EvRedeploy: kernel + weights re-deployed after a reboot.
	EvRedeploy = "redeploy"
	// EvRequeue: a job left a failing board for another one.
	EvRequeue = "requeue"
	// EvRailVCCINT / EvRailVCCBRAM: an externally commanded rail move
	// (API or operator), as opposed to governor activity.
	EvRailVCCINT  = "rail_vccint"
	EvRailVCCBRAM = "rail_vccbram"
	// Governor activity on the logic rail.
	EvGovProbe   = "governor_probe"
	EvGovClimb   = "governor_climb"
	EvGovDescent = "governor_descent"
	// Governor activity on the BRAM rail.
	EvGovBRAMProbe   = "governor_bram_probe"
	EvGovBRAMClimb   = "governor_bram_climb"
	EvGovBRAMDescent = "governor_bram_descent"
	// EvScrub: one ECC scrub pass over a board's weight regions.
	EvScrub = "scrub"
	// EvECCUncorrectable: served traffic hit detected-but-uncorrectable
	// BRAM corruption.
	EvECCUncorrectable = "ecc_uncorrectable"
	// EvRoute: the cluster router dispatched a request to a pool.
	EvRoute = "route"
	// EvShed: admission control refused a request attempt (pool queue
	// full or router caps hit).
	EvShed = "shed"
	// EvSpareActivate: a warm-spare pool was promoted to active.
	EvSpareActivate = "spare_activate"
	// EvSLOBurn: an SLO error budget started burning past the alert
	// threshold in both burn windows (rising edge only).
	EvSLOBurn = "slo_burn"
	// EvPostmortem: the crash flight recorder retained a postmortem.
	EvPostmortem = "postmortem"
	// EvHealthDegraded: the health scorer flagged a board degraded.
	EvHealthDegraded = "health_degraded"
)

// Event is one structured fleet occurrence. Seq is a journal-global
// sequence number (dense, starting at 1); BoardSeq counts events of the
// same board, so per-board causal chains (crash → reboot → redeploy)
// stay checkable even when boards interleave in the global order.
type Event struct {
	Seq      uint64    `json:"seq"`
	Board    string    `json:"board,omitempty"`
	BoardSeq uint64    `json:"board_seq,omitempty"`
	Kind     string    `json:"kind"`
	At       time.Time `json:"at"`
	AtNS     int64     `json:"at_ns"`
	MV       float64   `json:"mv,omitempty"`
	Detail   string    `json:"detail,omitempty"`
}

// Journal is a bounded ring of fleet events. Bounded because the fleet
// produces events forever (a governor probes every tick) and an
// unbounded log would be a slow memory leak; when the ring wraps, the
// oldest events drop and readers holding a pre-wrap cursor get an
// explicit gap signal instead of silent loss. Appends are mutex-ordered
// — that is what makes Seq dense and per-board ordering exact — but the
// producers are rate-limited fleet state machines, not the request hot
// path, so the lock is never contended by serving traffic.
type Journal struct {
	mu       sync.Mutex
	buf      []Event
	next     uint64 // seq of the most recently appended event
	boardSeq map[string]uint64
	counts   map[string]int64
	logger   atomic.Pointer[slog.Logger]
}

// NewJournal builds a journal retaining the most recent capacity events
// (default 4096).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Journal{
		buf:      make([]Event, capacity),
		boardSeq: make(map[string]uint64),
		counts:   make(map[string]int64),
	}
}

// SetLogger mirrors subsequent events to a structured logger (crashes
// and uncorrectable ECC at Warn, recovery steps at Info, governor and
// scrub chatter at Debug). Nil-safe; pass nil to detach.
func (j *Journal) SetLogger(l *slog.Logger) {
	if j != nil {
		j.logger.Store(l)
	}
}

// Append stamps and records an event, filling Seq, BoardSeq, At and
// AtNS, and returns the completed event. Nil-safe (returns ev as-is).
func (j *Journal) Append(ev Event) Event {
	if j == nil {
		return ev
	}
	ev.At = time.Now()
	ev.AtNS = NowNS()
	j.mu.Lock()
	j.next++
	ev.Seq = j.next
	if ev.Board != "" {
		j.boardSeq[ev.Board]++
		ev.BoardSeq = j.boardSeq[ev.Board]
	}
	j.buf[(ev.Seq-1)%uint64(len(j.buf))] = ev
	j.counts[ev.Kind]++
	j.mu.Unlock()

	if l := j.logger.Load(); l != nil {
		lv := eventLevel(ev.Kind)
		if l.Enabled(context.Background(), lv) {
			l.LogAttrs(context.Background(), lv, "fleet event",
				slog.Uint64("seq", ev.Seq),
				slog.String("kind", ev.Kind),
				slog.String("board", ev.Board),
				slog.Uint64("board_seq", ev.BoardSeq),
				slog.Float64("mv", ev.MV),
				slog.String("detail", ev.Detail))
		}
	}
	return ev
}

func eventLevel(kind string) slog.Level {
	switch kind {
	case EvCrash, EvECCUncorrectable, EvSLOBurn, EvHealthDegraded:
		return slog.LevelWarn
	case EvReboot, EvRedeploy, EvRequeue, EvRailVCCINT, EvRailVCCBRAM,
		EvShed, EvSpareActivate:
		return slog.LevelInfo
	default:
		return slog.LevelDebug
	}
}

// Since returns up to limit events with Seq > cursor in sequence order,
// the cursor to pass next (the last returned Seq, or the caller's when
// nothing new), and whether events between the cursor and the first
// returned one were already evicted (gap). A zero cursor reads from the
// oldest retained event; a cursor at or past the newest event reads
// nothing and comes back unchanged. limit <= 0 means 256, capped at the
// ring size.
func (j *Journal) Since(cursor uint64, limit int) (evs []Event, next uint64, gap bool) {
	if j == nil {
		return nil, cursor, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if limit <= 0 {
		limit = 256
	}
	if limit > len(j.buf) {
		limit = len(j.buf)
	}
	total := j.next
	if cursor >= total {
		return nil, cursor, false // nothing after the newest event
	}
	oldest := uint64(1)
	if total > uint64(len(j.buf)) {
		oldest = total - uint64(len(j.buf)) + 1
	}
	from := cursor + 1
	if from < oldest {
		gap = true
		from = oldest
	}
	next = cursor
	for seq := from; seq <= total && len(evs) < limit; seq++ {
		ev := j.buf[(seq-1)%uint64(len(j.buf))]
		evs = append(evs, ev)
		next = ev.Seq
	}
	return evs, next, gap
}

// Tail returns copies of the most recent n retained events in sequence
// order (oldest first) — the flight recorder's journal snapshot.
// Nil-safe.
func (j *Journal) Tail(n int) []Event {
	if j == nil || n <= 0 {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if n > len(j.buf) {
		n = len(j.buf)
	}
	total := j.next
	if uint64(n) > total {
		n = int(total)
	}
	out := make([]Event, 0, n)
	for seq := total - uint64(n) + 1; seq <= total; seq++ {
		out = append(out, j.buf[(seq-1)%uint64(len(j.buf))])
	}
	return out
}

// Total returns the number of events ever appended (the newest Seq).
func (j *Journal) Total() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next
}

// Counts returns a copy of the per-kind event totals (counting evicted
// events too — these back uvolt_events_total).
func (j *Journal) Counts() map[string]int64 {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string]int64, len(j.counts))
	for k, v := range j.counts {
		out[k] = v
	}
	return out
}

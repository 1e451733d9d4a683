package obs

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// Seq is dense and global, BoardSeq dense per board.
func TestJournalSequencing(t *testing.T) {
	j := NewJournal(16)
	a := j.Append(Event{Board: "board-0", Kind: EvCrash})
	b := j.Append(Event{Board: "board-1", Kind: EvCrash})
	c := j.Append(Event{Board: "board-0", Kind: EvReboot})
	if a.Seq != 1 || b.Seq != 2 || c.Seq != 3 {
		t.Errorf("global seqs = %d %d %d, want 1 2 3", a.Seq, b.Seq, c.Seq)
	}
	if a.BoardSeq != 1 || b.BoardSeq != 1 || c.BoardSeq != 2 {
		t.Errorf("board seqs = %d %d %d, want 1 1 2", a.BoardSeq, b.BoardSeq, c.BoardSeq)
	}
	if a.At.IsZero() || a.AtNS <= 0 {
		t.Error("timestamps not stamped")
	}
	if got := j.Total(); got != 3 {
		t.Errorf("Total = %d, want 3", got)
	}
	counts := j.Counts()
	if counts[EvCrash] != 2 || counts[EvReboot] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

// Cursor consumption: each Since picks up exactly where the last ended.
func TestJournalCursor(t *testing.T) {
	j := NewJournal(16)
	for i := 0; i < 5; i++ {
		j.Append(Event{Board: "b", Kind: EvScrub})
	}
	evs, next, gap := j.Since(0, 2)
	if gap || len(evs) != 2 || evs[0].Seq != 1 || next != 2 {
		t.Fatalf("first page: %d events, next %d, gap %v", len(evs), next, gap)
	}
	evs, next, gap = j.Since(next, 0)
	if gap || len(evs) != 3 || evs[0].Seq != 3 || next != 5 {
		t.Fatalf("second page: %d events, next %d, gap %v", len(evs), next, gap)
	}
	evs, next, gap = j.Since(next, 0)
	if gap || len(evs) != 0 || next != 5 {
		t.Fatalf("drained journal returned %d events, next %d, gap %v", len(evs), next, gap)
	}
}

// A cursor at or past the newest event — the largest uint64 included,
// whose successor wraps to 0 — reads nothing, reports no gap, and comes
// back unchanged so the client never moves backwards.
func TestJournalCursorPastEnd(t *testing.T) {
	j := NewJournal(16)
	for i := 0; i < 3; i++ {
		j.Append(Event{Board: "b", Kind: EvScrub})
	}
	for _, cursor := range []uint64{3, 100, math.MaxUint64} {
		evs, next, gap := j.Since(cursor, 0)
		if len(evs) != 0 || gap || next != cursor {
			t.Errorf("cursor %d: %d events, next %d, gap %v; want none, next %d, no gap",
				cursor, len(evs), next, gap, cursor)
		}
	}
}

// Wraparound: old events evict, and a cursor pointing before the oldest
// retained event gets an explicit gap signal, not silent loss.
func TestJournalWraparoundAndGap(t *testing.T) {
	j := NewJournal(4)
	for i := 1; i <= 10; i++ {
		j.Append(Event{Board: "b", Kind: EvGovProbe, MV: float64(i)})
	}
	// Events 1..6 are gone; 7..10 retained.
	evs, next, gap := j.Since(0, 0)
	if !gap {
		t.Error("cursor 0 after wrap must signal a gap")
	}
	if len(evs) != 4 || evs[0].Seq != 7 || evs[3].Seq != 10 || next != 10 {
		t.Fatalf("got %d events starting %d, next %d", len(evs), evs[0].Seq, next)
	}
	for i, ev := range evs {
		if ev.MV != float64(7+i) {
			t.Errorf("event %d payload mv=%v, want %v (ring slot mixup)", ev.Seq, ev.MV, 7+i)
		}
	}
	// A cursor exactly at the eviction edge: oldest retained is 7, so
	// cursor 6 is the newest non-gapped cursor.
	if _, _, gap := j.Since(6, 0); gap {
		t.Error("cursor 6 (edge) should not gap")
	}
	if _, _, gap := j.Since(5, 0); !gap {
		t.Error("cursor 5 (pre-edge) should gap")
	}
	// A fully caught-up cursor never gaps even after wrap.
	if evs, next, gap := j.Since(10, 0); gap || len(evs) != 0 || next != 10 {
		t.Errorf("caught-up cursor: %d events, next %d, gap %v", len(evs), next, gap)
	}
}

// Concurrent appenders and snapshotters under -race: sequence numbers
// stay dense and every snapshot is internally ordered.
func TestJournalConcurrentAppendSnapshot(t *testing.T) {
	j := NewJournal(64)
	const writers = 4
	const perWriter = 250
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			board := fmt.Sprintf("board-%d", w)
			for i := 0; i < perWriter; i++ {
				j.Append(Event{Board: board, Kind: EvGovProbe})
			}
		}(w)
	}
	go func() {
		defer close(readerDone)
		var cursor uint64
		for {
			evs, next, _ := j.Since(cursor, 0)
			for i := 1; i < len(evs); i++ {
				if evs[i].Seq != evs[i-1].Seq+1 {
					t.Errorf("snapshot seq hole: %d then %d", evs[i-1].Seq, evs[i].Seq)
					return
				}
			}
			cursor = next
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone
	if got := j.Total(); got != writers*perWriter {
		t.Errorf("Total = %d, want %d", got, writers*perWriter)
	}
	var sum int64
	for _, v := range j.Counts() {
		sum += v
	}
	if sum != writers*perWriter {
		t.Errorf("counts sum = %d, want %d", sum, writers*perWriter)
	}
}

// A nil journal absorbs everything (un-wired fleet configurations).
func TestJournalNilSafety(t *testing.T) {
	var j *Journal
	ev := j.Append(Event{Kind: EvCrash})
	if ev.Seq != 0 {
		t.Error("nil Append must not assign sequence numbers")
	}
	if evs, next, gap := j.Since(3, 1); evs != nil || next != 3 || gap {
		t.Error("nil Since must be inert")
	}
	if j.Total() != 0 || j.Counts() != nil {
		t.Error("nil readers must return zero values")
	}
	j.SetLogger(nil)
}

// A paging reader that pauses mid-page while writers wrap the ring
// must see the gap flag exactly once (on the page that skipped evicted
// events) and per-board sequence numbers that stay strictly monotone
// across everything it did receive.
func TestJournalPagedReaderPausedAcrossWrap(t *testing.T) {
	j := NewJournal(32)
	appendBatch := func(n int) {
		for i := 0; i < n; i++ {
			j.Append(Event{Board: fmt.Sprintf("b%d", i%3), Kind: EvGovProbe})
		}
	}

	appendBatch(20)

	// Page 1: the reader keeps up — no gap.
	var cursor uint64
	gaps := 0
	lastBoardSeq := map[string]uint64{}
	page := func(limit int) []Event {
		evs, next, gap := j.Since(cursor, limit)
		if gap {
			gaps++
		}
		cursor = next
		for _, ev := range evs {
			if prev, ok := lastBoardSeq[ev.Board]; ok && ev.BoardSeq <= prev {
				t.Fatalf("board %s seq went %d -> %d", ev.Board, prev, ev.BoardSeq)
			}
			lastBoardSeq[ev.Board] = ev.BoardSeq
		}
		return evs
	}
	if got := page(8); len(got) != 8 || gaps != 0 {
		t.Fatalf("page 1: %d events, %d gaps", len(got), gaps)
	}

	// Reader pauses mid-page; writers wrap the ring well past cursor 8.
	appendBatch(60) // total 80, ring holds 49..80

	// Page 2 lands after eviction: gap signaled, page starts at the
	// oldest retained event.
	p2 := page(8)
	if gaps != 1 {
		t.Fatalf("page 2: gaps = %d, want exactly 1", gaps)
	}
	if len(p2) != 8 || p2[0].Seq != 49 {
		t.Fatalf("page 2: %d events starting seq %d, want 8 starting 49", len(p2), p2[0].Seq)
	}

	// Draining the rest: no further gaps, pages chain densely to the
	// newest event.
	lastSeq := p2[len(p2)-1].Seq
	for {
		evs := page(8)
		if len(evs) == 0 {
			break
		}
		if evs[0].Seq != lastSeq+1 {
			t.Fatalf("page discontinuity: %d then %d", lastSeq, evs[0].Seq)
		}
		lastSeq = evs[len(evs)-1].Seq
	}
	if gaps != 1 {
		t.Fatalf("drain: gaps = %d, want the one wraparound gap only", gaps)
	}
	if lastSeq != 80 {
		t.Fatalf("drained to seq %d, want 80", lastSeq)
	}

	// A caught-up reader stays gap-free across another wrap only if it
	// pages before eviction; Tail always serves the newest N regardless.
	tail := j.Tail(5)
	if len(tail) != 5 || tail[4].Seq != 80 || tail[0].Seq != 76 {
		t.Fatalf("tail = %d events [%d..%d]", len(tail), tail[0].Seq, tail[len(tail)-1].Seq)
	}
}

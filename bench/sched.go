package main

import (
	"sync"
	"time"
)

// shot is one open-loop request as the generator saw it. All three stamps
// are offsets from the start of the run.
type shot struct {
	due   time.Duration // when the schedule said to fire
	start time.Duration // when the generator actually fired
	end   time.Duration // when the reply arrived
	ok    bool
}

// latency runs from the scheduled fire time, not the actual one: a stall
// that delays later shots is charged to them (no coordinated omission).
func (s shot) latency() time.Duration { return s.end - s.due }

// lag is how late the generator itself ran.
func (s shot) lag() time.Duration { return s.start - s.due }

// openLoop fires n shots on an absolute schedule, one every interval, each
// on its own goroutine so a slow reply never gates the next send. At most
// maxInFlight shots are outstanding: when the target backs up that far the
// dispatcher blocks, later shots start late, and their latency — still
// counted from the due time — shows it. internal/load has the same shape
// but keeps neither raw latencies nor generator lag, which the budget
// table and the validity flag need.
func openLoop(n int, interval time.Duration, maxInFlight int, fire func(i int) bool) []shot {
	shots := make([]shot, n)
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < n; i++ {
		due := time.Duration(i) * interval
		if d := due - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		shots[i].due = due
		shots[i].start = time.Since(t0)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shots[i].ok = fire(i)
			shots[i].end = time.Since(t0)
			<-sem
		}(i)
	}
	wg.Wait()
	return shots
}

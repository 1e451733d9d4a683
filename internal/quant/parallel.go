package quant

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the process-wide tile worker pool behind the parallel
// GEMM lowerings and the DPU's batch lanes. A pass uses it at one level:
// with at least as many lanes as executors the lanes are the tiles and
// their GEMMs stay on the lane's goroutine; only a pass smaller than the
// pool (the lone image) fans its GEMM macro-tiles out instead. The
// design is deliberately non-blocking: RunTiles offers work to idle
// helpers but never waits for one — the calling goroutine always
// participates and, when every helper is busy, simply runs the whole
// index space itself. Nested RunTiles calls (a lane of a small pass on
// a wide pool) therefore cannot deadlock: a job's items only ever wait
// on strictly deeper jobs — but a caller parked in wg.Wait cannot take
// a nested offer either, which is why a pass nests only while lanes
// alone would leave executors idle.
//
// Work items are Tiler values whose coordination state (TileJob) is
// embedded in a caller-pooled struct, so a steady-state parallel GEMM
// performs no heap allocation: no closures are captured and the job
// structs recycle through sync.Pools guarded by a reference count (a
// helper may still hold a drained job it received late; the last
// holder — caller or helper — recycles it).

// maxGemmWorkers is the hard cap on the pool size: tile parallelism is
// memory-bandwidth-bound well before this, and an unbounded pool would
// let a misconfigured GOMAXPROCS spawn helpers that only thrash.
const maxGemmWorkers = 16

// workerOverride holds the runtime-tuned worker count; 0 selects the
// automatic GOMAXPROCS-aware default.
var workerOverride atomic.Int64

// tileQueue carries offered jobs to the helper goroutines. Buffered so
// an offer can land even while every helper is mid-tile; a helper that
// receives an already-drained job releases it and moves on.
var tileQueue = make(chan Tiler, maxGemmWorkers)

// helperCount tracks spawned helper goroutines (at most
// maxGemmWorkers-1; the caller is always the remaining executor).
var helperCount atomic.Int32

// TilePoolStats is the pool's lifetime activity, counted once per job or
// per drain, never per tile. An offer is accepted when a helper ran at
// least one of the job's tiles and refused otherwise (queue full, or
// every tile was claimed before a helper got to it), so on an
// oversubscribed host Refused approaches Accepted+Refused and
// HelperTiles approaches 0.
type TilePoolStats struct {
	// Jobs counts index spaces offered to the pool; serial runs
	// (one worker, one tile) are not jobs.
	Jobs        int64 `json:"jobs"`
	Accepted    int64 `json:"offers_accepted"`
	Refused     int64 `json:"offers_refused"`
	CallerTiles int64 `json:"caller_tiles"`
	HelperTiles int64 `json:"helper_tiles"`
}

var poolJobs, poolAccepted, poolRefused, poolCallerTiles, poolHelperTiles atomic.Int64

// PoolStats snapshots the pool counters.
func PoolStats() TilePoolStats {
	return TilePoolStats{
		Jobs:        poolJobs.Load(),
		Accepted:    poolAccepted.Load(),
		Refused:     poolRefused.Load(),
		CallerTiles: poolCallerTiles.Load(),
		HelperTiles: poolHelperTiles.Load(),
	}
}

// Workers returns the effective GEMM worker-pool size: the SetWorkers
// override when one is set, otherwise GOMAXPROCS, both capped at
// maxGemmWorkers.
func Workers() int {
	n := int(workerOverride.Load())
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > maxGemmWorkers {
		n = maxGemmWorkers
	}
	if n < 1 {
		n = 1
	}
	return n
}

// SetWorkers retunes the process-wide pool: n >= 1 pins the executor
// count (callers included), n <= 0 restores the automatic
// GOMAXPROCS-aware default. Safe to call at any time, including while
// GEMMs are in flight — running jobs finish at their admission-time
// width.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerOverride.Store(int64(n))
}

// TileJob is the coordination state of one parallel index space,
// embedded in a concrete Tiler so dispatch needs no extra allocation.
type TileJob struct {
	n    int64
	next atomic.Int64
	wg   sync.WaitGroup
	refs atomic.Int32
}

// Tiler is one parallelizable job: Tile(i) computes index i of a dense
// [0, n) space, with distinct indices safe to run concurrently. Job
// exposes the embedded coordination state; Recycle returns the value to
// its owner's pool once the last holder drops it (RunTiles consumes the
// Tiler — callers must not touch it after the call).
type Tiler interface {
	Tile(i int)
	Job() *TileJob
	Recycle()
}

// RunTiles executes t.Tile(i) for every i in [0, n), splitting the
// index space across the calling goroutine and up to Workers()-1 idle
// pool helpers, and returns when all n tiles are done. Tiles are
// claimed one at a time from a shared atomic cursor, so ragged index
// spaces balance without pre-partitioning. The caller never blocks on
// helper availability — with none free it degrades to a serial loop.
func RunTiles(n int, t Tiler) {
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			t.Tile(i)
		}
		t.Recycle()
		return
	}
	j := t.Job()
	j.n = int64(n)
	j.next.Store(0)
	j.wg.Add(n)
	j.refs.Store(1)
	ensureHelpers(w - 1)
	poolJobs.Add(1)
	for i := 0; i < w-1; i++ {
		j.refs.Add(1)
		select {
		case tileQueue <- t:
		default:
			// Queue full: every helper is busy (or has a pending offer);
			// stop offering and do the rest ourselves.
			j.refs.Add(-1)
			poolRefused.Add(int64(w - 1 - i))
			i = w
		}
	}
	poolCallerTiles.Add(drainTiles(t, j))
	j.wg.Wait()
	releaseTile(t, j)
}

// drainTiles claims and runs tiles until the job's cursor passes the
// end of the index space, and returns how many it ran.
func drainTiles(t Tiler, j *TileJob) (ran int64) {
	n := j.n
	for {
		i := j.next.Add(1) - 1
		if i >= n {
			return ran
		}
		t.Tile(int(i))
		j.wg.Done()
		ran++
	}
}

// releaseTile drops one holder's reference; the last one recycles the
// job. The reference count is what makes sync.Pool reuse safe: a job
// can sit in tileQueue (or in a busy helper's hand) after its caller
// finished, and it must not be handed to a new owner until that stale
// holder has let go.
func releaseTile(t Tiler, j *TileJob) {
	if j.refs.Add(-1) == 0 {
		t.Recycle()
	}
}

// ensureHelpers spawns helper goroutines until at least want exist.
// Helpers are never torn down — an idle helper is a parked goroutine
// blocked on a channel receive, and SetWorkers shrinking the pool just
// leaves the surplus parked.
func ensureHelpers(want int) {
	if want > maxGemmWorkers-1 {
		want = maxGemmWorkers - 1
	}
	for {
		cur := helperCount.Load()
		if int(cur) >= want {
			return
		}
		if helperCount.CompareAndSwap(cur, cur+1) {
			go tileHelper()
		}
	}
}

// tileHelper is one pool worker: receive a job, help drain it, release
// it, repeat forever.
func tileHelper() {
	for t := range tileQueue {
		j := t.Job()
		if ran := drainTiles(t, j); ran > 0 {
			poolAccepted.Add(1)
			poolHelperTiles.Add(ran)
		} else {
			poolRefused.Add(1)
		}
		releaseTile(t, j)
	}
}

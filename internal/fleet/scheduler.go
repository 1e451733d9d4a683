package fleet

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"fpgauv/internal/nn"
	"fpgauv/internal/obs"
)

// Scheduler is the serving contract the HTTP front-end programs against:
// everything a request needs (classify, infer, introspection, shutdown)
// without naming the scheduling topology behind it. A single *Pool and a
// cluster router over N pools both implement it, so the front-end is
// interchangeable between one board-set and a sharded fleet.
//
// The admission surface is part of the contract: Classify and Infer
// return ErrSaturated (carrying a RetryAfter hint) instead of queuing
// without bound when the scheduler's backlog limit is reached, and
// QueueDepth/Status expose the live backlog so callers and routers can
// make load decisions without submitting work.
type Scheduler interface {
	// Classify runs one evaluation-set pass.
	Classify(ctx context.Context, req Request) (Result, error)
	// Infer classifies caller-supplied images.
	Infer(ctx context.Context, req InferRequest) (InferResult, error)
	// Status snapshots the scheduler without blocking the serving path.
	Status() Status
	// Journal is the scheduler's bounded event journal. For a cluster
	// this is the router tier's journal (route/shed/spare events);
	// per-pool board journals stay addressable through Pools.
	Journal() *obs.Journal
	// InputShape is the CHW geometry inference images must have.
	InputShape() nn.Shape
	// QueueDepth is the present backlog (jobs admitted, not yet picked
	// up) — the admission surface's live signal.
	QueueDepth() int
	// Size is the number of boards serving: how many passes can execute
	// at once. The front-end's batcher holds a request for company only
	// while it has that many passes of its own outstanding.
	Size() int
	// Pools enumerates the concrete pools behind the scheduler in stable
	// index order (a single pool returns itself), for pool-scoped
	// operations: per-board rail moves, governor tuning, chaos injection.
	Pools() []*Pool
	// Close stops admission, drains queued work and releases the boards.
	Close()
}

// Pool is the degenerate one-pool scheduler.
var _ Scheduler = (*Pool)(nil)

// ErrSaturated reports that admission control refused a request because
// the scheduler's backlog limit was reached. It is a typed error — not a
// sentinel — because the shed itself carries data: how deep the backlog
// was and how long the caller should wait before retrying (the HTTP
// layer maps it to 429 with a Retry-After header). Check with
// errors.As(err, &fleet.ErrSaturated{}).
type ErrSaturated struct {
	// Scheduler names the pool (or router) that shed the request.
	Scheduler string
	// Depth is the backlog observed at rejection.
	Depth int
	// RetryAfter is the shedding scheduler's drain estimate: roughly how
	// long until the present backlog has been served.
	RetryAfter time.Duration
}

func (e ErrSaturated) Error() string {
	who := e.Scheduler
	if who == "" {
		who = "pool"
	}
	return fmt.Sprintf("fleet: %s saturated (%d queued); retry in %s", who, e.Depth, e.RetryAfter)
}

// satRetryBuckets quantizes RetryAfter hints so shed errors can be
// interned: the drain estimate rounds up to the next bucket. The ladder
// spans the same [10ms, 5s] operator window the un-cached construction
// clamped to.
var satRetryBuckets = [...]time.Duration{
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	time.Second, 2500 * time.Millisecond, 5 * time.Second,
}

// satDepthCap bounds the distinct backlog depths a cached shed error
// reports; deeper backlogs all read as "at least satDepthCap".
const satDepthCap = 64

// SatErrCache interns boxed ErrSaturated values keyed by (clamped
// depth, retry bucket), making shed-path error construction
// allocation-free in the steady state: the first shed at a given cell
// boxes one error, every later shed re-serves it. A shed storm is
// exactly when the scheduler is overloaded, so the refusal path must
// not add GC pressure of its own (BenchmarkClusterOpenLoop measured
// served throughput sagging under offered overload before this
// existed). Concurrent first-use may race two equal Stores on one cell
// — both values are identical, so either winning is fine.
type SatErrCache struct {
	cells [satDepthCap + 1][len(satRetryBuckets)]atomic.Value
}

// Err returns the interned shed error for the given scheduler name,
// backlog depth, and drain estimate. The name must be the same for
// every call on one cache (it is stamped into the cell on first use).
func (c *SatErrCache) Err(name string, depth int, ra time.Duration) error {
	d := depth
	if d < 0 {
		d = 0
	}
	if d > satDepthCap {
		d = satDepthCap
	}
	b := 0
	for b < len(satRetryBuckets)-1 && satRetryBuckets[b] < ra {
		b++
	}
	if v := c.cells[d][b].Load(); v != nil {
		// any→error is an interface-to-interface assertion: no boxing,
		// no allocation.
		return v.(error)
	}
	err := error(ErrSaturated{Scheduler: name, Depth: d, RetryAfter: satRetryBuckets[b]})
	c.cells[d][b].Store(err)
	return err
}

// saturatedErr builds this pool's shed error: the retry hint is the
// backlog drain estimate from the pool's smoothed per-job service time,
// quantized onto the [10ms, 5s] bucket ladder so the error value can be
// served from the pool's intern cache without allocating.
func (p *Pool) saturatedErr(depth int) error {
	svc := time.Duration(p.svcNS.Load())
	if svc <= 0 {
		svc = 25 * time.Millisecond
	}
	ra := time.Duration(depth+1) * svc / time.Duration(len(p.members))
	return p.satErrs.Err(p.Name(), depth, ra)
}

// Package cluster scales the fleet layer once more: where fleet.Pool
// schedules one request across N boards, cluster.Router schedules
// requests across N pools. The paper's energy argument only pays at
// this scale — guardband reclamation on one board trims milliwatts,
// reclamation across racks of pools trims the power bill — and at this
// scale unbounded queues stop being an admission policy. The router
// implements the same fleet.Scheduler contract a single pool does, so
// the HTTP front-end cannot tell one board-set from a sharded cluster,
// and adds what a cluster needs: deterministic rendezvous routing keyed
// by request affinity, per-pool admission control (queue-depth and
// in-flight caps), shed-and-retry-next-pool on saturation, SLO-aware
// dispatch driven by each pool's governor settle state and modeled
// power, and warm-spare pools promoted when aggregate backlog crosses a
// threshold. Routing decisions are journaled (route/shed/spare_activate)
// so traces show which pool served each attempt.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fpgauv/internal/fleet"
	"fpgauv/internal/nn"
	"fpgauv/internal/obs"
)

// Config sizes and parameterizes a router.
type Config struct {
	// Pools is the number of pools active at startup (default 2).
	Pools int
	// Spares is the number of warm-spare pools assembled, characterized
	// and parked at their operating points but excluded from routing
	// until aggregate backlog promotes them (default 0).
	Spares int
	// Pool is the template every pool is built from. Pool.Name is
	// overwritten per pool ("pool0", "pool1", ...). Pool.MaxQueue
	// defaults to 8 when unset: a router over unbounded pools could
	// never observe saturation, which would defeat shed-and-retry.
	Pool fleet.Config
	// MaxInFlight caps jobs executing concurrently on one pool before
	// the router stops offering it work (default 2× boards; negative
	// disables the cap).
	MaxInFlight int
	// SpareDepth is the aggregate backlog per active pool (queued plus
	// in-flight beyond board count) that promotes a warm spare
	// (default: the pool queue bound).
	SpareDepth int
	// SignalTTL bounds how stale the router's cached routing signals
	// (quiescence, power) may be (default 25ms). Depth and in-flight
	// are always read live — they are single atomic loads.
	SignalTTL time.Duration
}

// eventCap bounds the router's own journal.
const eventCap = 1024

// sanitize fills config defaults.
func (c Config) sanitize() Config {
	if c.Pools <= 0 {
		c.Pools = 2
	}
	if c.Spares < 0 {
		c.Spares = 0
	}
	if c.Pool.MaxQueue == 0 {
		c.Pool.MaxQueue = 8
	}
	if c.MaxInFlight == 0 {
		boards := c.Pool.Boards
		if boards <= 0 {
			boards = 3
		}
		c.MaxInFlight = 2 * boards
	}
	if c.SpareDepth <= 0 {
		c.SpareDepth = c.Pool.MaxQueue
	}
	if c.SignalTTL <= 0 {
		c.SignalTTL = 25 * time.Millisecond
	}
	return c
}

// entry is one pool with its routing-side state.
type entry struct {
	pool *fleet.Pool
	name string
	// active is false for an unpromoted warm spare.
	active atomic.Bool
	// routes counts requests dispatched here; sheds counts attempts
	// refused here (router pre-check or the pool's own admission).
	routes atomic.Int64
	sheds  atomic.Int64
	// Cached slow signals (quiescent boards, modeled power, degraded
	// boards), refreshed at most once per SignalTTL. stampNS is the
	// refresh time.
	sigMu     sync.Mutex
	stampNS   atomic.Int64
	quiescent atomic.Int64
	powerBits atomic.Uint64
	degraded  atomic.Int64
}

// signals refreshes and returns the entry's slow routing signals.
func (e *entry) signals(ttl time.Duration) (quiescent int, powerW float64, degraded int) {
	now := obs.NowNS()
	if now-e.stampNS.Load() > int64(ttl) {
		e.sigMu.Lock()
		// Double-check under the lock so one refresher works per window.
		if now-e.stampNS.Load() > int64(ttl) {
			q, _ := e.pool.QuiescentBoards()
			e.quiescent.Store(int64(q))
			e.powerBits.Store(math.Float64bits(e.pool.OperatingPowerW()))
			e.degraded.Store(int64(e.pool.DegradedBoards()))
			e.stampNS.Store(now)
		}
		e.sigMu.Unlock()
	}
	return int(e.quiescent.Load()), math.Float64frombits(e.powerBits.Load()), int(e.degraded.Load())
}

// Router schedules requests across N pools behind the fleet.Scheduler
// contract.
type Router struct {
	cfg     Config
	entries []*entry
	journal *obs.Journal

	closing atomic.Bool
	closed  sync.Once
	// spareMu serializes spare promotion so concurrent saturation bursts
	// promote one spare, not all of them.
	spareMu sync.Mutex

	routes    atomic.Int64
	hops      atomic.Int64
	sheds     atomic.Int64
	spareActs atomic.Int64
	// satErrs interns the router's terminal shed errors so refusing a
	// request when every pool is saturated allocates nothing — under
	// sustained overload the refusal path runs far more often than the
	// dispatch path, and BenchmarkClusterOpenLoop measured served
	// throughput sagging as offered load (and thus shed-path garbage)
	// rose.
	satErrs fleet.SatErrCache
}

var _ fleet.Scheduler = (*Router)(nil)

// New assembles Pools+Spares pools from the template and starts routing
// across the active ones. Characterization is shared per silicon sample
// (the fleet layer's region cache), so a many-pool cluster brings up
// nearly as fast as one pool.
func New(cfg Config) (*Router, error) {
	cfg = cfg.sanitize()
	r := &Router{cfg: cfg, journal: obs.NewJournal(eventCap)}
	total := cfg.Pools + cfg.Spares
	for i := 0; i < total; i++ {
		pc := cfg.Pool
		pc.Name = fmt.Sprintf("pool%d", i)
		p, err := fleet.New(pc)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("cluster: %s: %w", pc.Name, err)
		}
		e := &entry{pool: p, name: pc.Name}
		e.active.Store(i < cfg.Pools)
		r.entries = append(r.entries, e)
	}
	return r, nil
}

// rendezvousScore ranks pool name against affinity key by
// highest-random-weight hashing, weighted by board count: every router
// ranks (key, pool) identically, so a given affinity key deterministically
// prefers the same pool until that pool saturates or the pool set
// changes — and a membership change only remaps the keys whose winner
// left, never reshuffles the whole space.
func rendezvousScore(key int64, pool string, weight int) float64 {
	h := uint64(key) ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(pool); i++ {
		h ^= uint64(pool[i])
		h *= 1099511628211 // FNV-1a prime
	}
	// SplitMix64 finalizer: decorrelate the low bits.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	// Weighted rendezvous: -w / ln(u) with u uniform in (0,1).
	u := (float64(h>>11) + 0.5) / (1 << 53)
	if weight <= 0 {
		weight = 1
	}
	return -float64(weight) / math.Log(u)
}

// trafficClass discriminates the two SLO classes the router routes.
type trafficClass int

const (
	classBulk    trafficClass = iota // eval passes: throughput, cost-first
	classLatency                     // per-image inference: latency-first
)

// ranked is one candidate pool with its ordering keys.
type ranked struct {
	e   *entry
	key float64
	tie float64
}

// routeScratch is the reusable working set of one routing decision
// (candidate list and ranking keys), pooled so the route path — and in
// particular the shed path, which runs hottest exactly when the cluster
// is overloaded — performs no per-request slice allocation. It
// implements sort.Interface over rk so ordering needs no reflection
// swapper or comparison closure either.
type routeScratch struct {
	act []*entry
	rk  []ranked
}

var routeScratches = sync.Pool{New: func() any { return new(routeScratch) }}

func (s *routeScratch) Len() int { return len(s.rk) }
func (s *routeScratch) Less(a, b int) bool {
	if s.rk[a].key != s.rk[b].key {
		return s.rk[a].key < s.rk[b].key
	}
	return s.rk[a].tie < s.rk[b].tie
}
func (s *routeScratch) Swap(a, b int) { s.rk[a], s.rk[b] = s.rk[b], s.rk[a] }

// candidates orders the active pools for one request into s (the
// returned slice is s.act — valid until s is re-used). A pinned
// affinity key gets deterministic rendezvous order — the same key keeps
// landing on the same pool (warm scratch arenas, reproducible fault
// streams) with a stable fallback chain. Unpinned latency-sensitive
// traffic prefers pools whose boards are quiescent (settled governor
// loops never steal mid-request canary passes), then the shortest
// backlog; unpinned bulk traffic prefers the cheapest pool by modeled
// power — the pools settled deepest into the guardband — then backlog.
// Both unpinned classes penalize pools with health-degraded boards
// (margin regression precedes crashes, so a degraded pool is a crash
// risk the router can route around before availability pays for it):
// each degraded board fraction outweighs a fully quiescent pool on the
// latency key and inflates the bulk power key proportionally.
func (r *Router) candidates(class trafficClass, affinity int64, s *routeScratch) []*entry {
	s.act = s.act[:0]
	s.rk = s.rk[:0]
	for _, e := range r.entries {
		if e.active.Load() {
			s.act = append(s.act, e)
		}
	}
	for _, e := range s.act {
		load := float64(e.pool.QueueDepth() + e.pool.InFlight())
		switch {
		case affinity != 0:
			s.rk = append(s.rk, ranked{e, -rendezvousScore(affinity, e.name, e.pool.Size()), 0})
		case class == classLatency:
			q, _, d := e.signals(r.cfg.SignalTTL)
			size := float64(e.pool.Size())
			s.rk = append(s.rk, ranked{e, -float64(q)/size + 2*float64(d)/size, load})
		default:
			_, p, d := e.signals(r.cfg.SignalTTL)
			s.rk = append(s.rk, ranked{e, p * (1 + float64(d)/float64(e.pool.Size())), load})
		}
	}
	sort.Stable(s)
	for i := range s.rk {
		s.act[i] = s.rk[i].e
	}
	return s.act
}

// admit is the router-side pre-check: refuse a pool whose backlog or
// in-flight load already exceeds the caps, without paying a submission.
func (r *Router) admit(e *entry) bool {
	if max := r.cfg.Pool.MaxQueue; max > 0 && e.pool.QueueDepth() >= max {
		return false
	}
	if r.cfg.MaxInFlight > 0 && e.pool.InFlight() >= r.cfg.MaxInFlight {
		return false
	}
	return true
}

// detailSet holds one verb's per-hop journal strings, precomputed at
// init so the route and shed paths append only static strings — no
// fmt.Sprintf on the hot path. Hops at or beyond maxHopDetail collapse
// into the final "+" entry.
type detailSet struct {
	route [maxHopDetail]string
	shed  [maxHopDetail]string
}

const maxHopDetail = 4

func newDetailSet(verb string) *detailSet {
	d := &detailSet{}
	for i := range d.route {
		suffix := fmt.Sprintf("hop %d", i)
		if i == maxHopDetail-1 {
			suffix += "+"
		}
		d.route[i] = verb + " " + suffix
		d.shed[i] = verb + " " + suffix + ": pool saturated"
	}
	return d
}

var (
	classifyDetails = newDetailSet("classify")
	inferDetails    = newDetailSet("infer")
)

func hopIdx(hop int) int {
	if hop >= maxHopDetail {
		return maxHopDetail - 1
	}
	return hop
}

// tryDispatch offers the job to one pool. done reports the attempt is
// final (served or failed terminally, with err the outcome); retry
// carries the pool's RetryAfter hint when it shed the job after winning
// admission. A method rather than a closure so the shed path allocates
// no captures.
func (r *Router) tryDispatch(e *entry, hop int, det *detailSet, dispatch func(*fleet.Pool) error) (done bool, retry time.Duration, err error) {
	if !r.admit(e) {
		e.sheds.Add(1)
		r.journal.Append(obs.Event{Board: e.name, Kind: obs.EvShed, Detail: det.shed[hopIdx(hop)]})
		return false, 0, nil
	}
	e.routes.Add(1)
	r.routes.Add(1)
	if hop > 0 {
		r.hops.Add(1)
	}
	r.journal.Append(obs.Event{Board: e.name, Kind: obs.EvRoute, Detail: det.route[hopIdx(hop)]})
	err = dispatch(e.pool)
	var sat fleet.ErrSaturated
	if errors.As(err, &sat) {
		// Lost the race between the pre-check and the pool's own
		// admission: treat exactly like a failed pre-check.
		e.sheds.Add(1)
		r.journal.Append(obs.Event{Board: e.name, Kind: obs.EvShed, Detail: det.shed[hopIdx(hop)]})
		return false, sat.RetryAfter, nil
	}
	return true, 0, err
}

// route runs the shared dispatch protocol: order the candidates, try
// each in turn (shedding to the next on saturation), promote a warm
// spare if every active pool is saturated, and shed to the caller only
// when no pool anywhere will take the job.
func (r *Router) route(class trafficClass, affinity int64, det *detailSet, dispatch func(*fleet.Pool) error) error {
	if r.closing.Load() {
		return fleet.ErrClosed
	}
	r.maybePromoteSpare()
	minRetry := time.Duration(0)
	noteSat := func(ra time.Duration) {
		if ra > 0 && (minRetry == 0 || ra < minRetry) {
			minRetry = ra
		}
	}
	hop := 0
	s := routeScratches.Get().(*routeScratch)
	served, result := false, error(nil)
	for _, e := range r.candidates(class, affinity, s) {
		done, retry, err := r.tryDispatch(e, hop, det, dispatch)
		noteSat(retry)
		if done {
			served, result = true, err
			break
		}
		hop++
	}
	routeScratches.Put(s)
	if served {
		return result
	}
	// Every active pool refused: promote a spare for this job if one is
	// left, and give the request to it directly.
	if e := r.promoteSpare("all active pools saturated"); e != nil {
		done, _, err := r.tryDispatch(e, hop, det, dispatch)
		if done {
			return err
		}
	}
	r.sheds.Add(1)
	if minRetry == 0 {
		minRetry = 50 * time.Millisecond
	}
	return r.satErrs.Err("cluster", r.QueueDepth(), minRetry)
}

// maybePromoteSpare promotes one warm spare when the aggregate backlog
// across active pools (queued plus in-flight beyond the board count)
// crosses SpareDepth per active pool.
func (r *Router) maybePromoteSpare() {
	agg, active := 0, 0
	for _, e := range r.entries {
		if !e.active.Load() {
			continue
		}
		active++
		over := e.pool.QueueDepth() + e.pool.InFlight() - e.pool.Size()
		if over > 0 {
			agg += over
		}
	}
	if active == 0 || agg < r.cfg.SpareDepth*active {
		return
	}
	r.promoteSpare(fmt.Sprintf("aggregate backlog %d across %d active pools", agg, active))
}

// promoteSpare activates the first unpromoted spare, if any, and
// returns it.
func (r *Router) promoteSpare(why string) *entry {
	r.spareMu.Lock()
	defer r.spareMu.Unlock()
	for _, e := range r.entries {
		if !e.active.Load() {
			e.active.Store(true)
			r.spareActs.Add(1)
			r.journal.Append(obs.Event{Board: e.name, Kind: obs.EvSpareActivate, Detail: why})
			return e
		}
	}
	return nil
}

// Classify dispatches one evaluation-set pass (bulk traffic: routed
// cost-first unless the seed pins an affinity).
func (r *Router) Classify(ctx context.Context, req fleet.Request) (fleet.Result, error) {
	var out fleet.Result
	err := r.route(classBulk, req.Seed, classifyDetails, func(p *fleet.Pool) error {
		res, err := p.Classify(ctx, req)
		if err == nil {
			out = res
		}
		return err
	})
	return out, err
}

// Infer dispatches one inference job (latency-sensitive traffic: routed
// to quiescent pools unless the seed pins an affinity).
func (r *Router) Infer(ctx context.Context, req fleet.InferRequest) (fleet.InferResult, error) {
	var out fleet.InferResult
	err := r.route(classLatency, req.Seed, inferDetails, func(p *fleet.Pool) error {
		res, err := p.Infer(ctx, req)
		if err == nil {
			out = res
		}
		return err
	})
	return out, err
}

// InputShape returns the CHW geometry inference images must have (every
// pool serves the same deployment).
func (r *Router) InputShape() nn.Shape { return r.entries[0].pool.InputShape() }

// Journal returns the router tier's journal: route, shed and
// spare_activate events. Per-pool board journals remain addressable
// through Pools.
func (r *Router) Journal() *obs.Journal { return r.journal }

// QueueDepth is the aggregate backlog across active pools.
func (r *Router) QueueDepth() int {
	total := 0
	for _, e := range r.entries {
		if e.active.Load() {
			total += e.pool.QueueDepth()
		}
	}
	return total
}

// Size is the number of boards across active pools (a parked spare
// serves nothing until it is promoted).
func (r *Router) Size() int {
	total := 0
	for _, e := range r.entries {
		if e.active.Load() {
			total += e.pool.Size()
		}
	}
	return total
}

// Pools enumerates every pool — active and spare — in index order.
func (r *Router) Pools() []*fleet.Pool {
	out := make([]*fleet.Pool, len(r.entries))
	for i, e := range r.entries {
		out[i] = e.pool
	}
	return out
}

// Close stops admission and shuts the pools down in parallel.
func (r *Router) Close() {
	r.closed.Do(func() {
		r.closing.Store(true)
		var wg sync.WaitGroup
		for _, e := range r.entries {
			wg.Add(1)
			go func(p *fleet.Pool) {
				defer wg.Done()
				p.Close()
			}(e.pool)
		}
		wg.Wait()
	})
}

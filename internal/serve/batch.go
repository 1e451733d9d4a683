package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"fpgauv/internal/fleet"
	"fpgauv/internal/obs"
	"fpgauv/internal/tensor"
)

// ErrShutdown is returned to callers that arrive after Close.
var ErrShutdown = errors.New("serve: server is shutting down")

// batcher coalesces concurrent submissions into shared accelerator
// passes. It runs two queues over one mechanism:
//
//   - classify calls: one evaluation-set pass on one board answers every
//     request in the batch (batch unit = calls);
//   - infer calls: heterogeneous per-image submissions — callers with
//     different image counts — merge into one fleet micro-batch
//     (batch unit = images).
//
// Dispatch is work-conserving: a waiter is held for company only while
// every board is busy. A queue's pending batch is claimed
//
//   - at once, when a board is free (idle);
//   - when it reaches its size (size);
//   - when a pass of this batcher finishes below the board count — a
//     lane just freed, and whatever is pending takes it (lane-freed);
//   - when its oldest waiter has waited window (window).
//
// "A board is free" means active < sched.Size(): the batcher counts the
// passes it has claimed and not finished itself. The scheduler's own
// in-flight and queued counts lag a claim — a claimed pass reaches the
// scheduler from a spawned goroutine — so a burst read against them
// would see idle boards and leave as singles.
//
// Only calls with a server-assigned seed coalesce — a caller that pins
// its own seed is asking for a specific fault stream and gets a
// dedicated pass.
type batcher struct {
	sched  fleet.Scheduler
	window time.Duration // longest hold while every board is busy

	// tracer supplies recycled span buffers for the shared fleet-job
	// subtree of each coalesced batch. A nil tracer (tests building the
	// batcher directly) traces nothing.
	tracer *obs.Tracer

	mu  sync.Mutex
	cls group // pending classify waiters
	inf group // pending infer waiters
	// active counts the passes claimed and not finished: coalesced
	// batches and dedicated (pinned-seed, full-batch) passes alike.
	active int
	seq    int64 // arrival stamp of the last waiter
	closed bool
	wg     sync.WaitGroup

	// onBatch, when set, observes every accelerator pass the batcher
	// runs (kind, batch units) — the metrics hook.
	onBatch func(kind string, units int)

	batches        atomic.Int64
	coalesced      atomic.Int64
	canceled       atomic.Int64
	inferBatches   atomic.Int64
	inferCoalesced atomic.Int64
}

// group is one coalescing queue: its pending waiters, the batch-unit
// total against the size that flushes it, the pass that serves a
// claimed batch, and the window-timer state.
type group struct {
	pending []*call
	units   int
	size    int
	run     func([]*call)
	timer   *time.Timer
	// gen counts claimed batches. The window timer captures the
	// generation it was armed for; a timer that fires late — after
	// another trigger already claimed its batch — finds the
	// generation advanced and returns instead of flushing the *next*
	// batch's fresh waiters before their window expires.
	gen int64
}

// call is one waiter and its result slot. imgs is nil for classify
// calls; for infer calls it is the caller's images. seq orders waiters
// by arrival across both queues. traced marks a waiter whose submitter
// carries a request trace — one traced waiter is enough to make the
// batch record its shared fleet subtree.
type call struct {
	imgs   []*tensor.Tensor
	ch     chan callOut
	seq    int64
	traced bool
}

type callOut struct {
	res   fleet.Result        // classify result
	inf   []fleet.InferOutput // per-image infer outputs
	board string
	mv    float64
	batch int
	err   error
	// jt is the batch's shared fleet-job span buffer (nil when no waiter
	// was traced); claimedNS is the instant the batch left the queue, the
	// end stamp for each caller's batch_wait span.
	jt        *obs.Trace
	claimedNS int64
}

func newBatcher(sched fleet.Scheduler, size, images int, window time.Duration) *batcher {
	if size <= 0 {
		size = 8
	}
	if images <= 0 {
		images = 16
	}
	if window <= 0 {
		window = 2 * time.Millisecond
	}
	b := &batcher{sched: sched, window: window}
	b.cls = group{size: size, run: b.runEval}
	b.inf = group{size: images, run: b.runInfer}
	return b
}

// Submit runs one classify call and blocks until it is served or ctx is
// canceled. It reports the fleet result and the batch size the call was
// amortized across. A non-zero seed bypasses coalescing: sharing a
// batch-mate's pass would silently serve the caller a different fault
// stream than the one it pinned.
func (b *batcher) Submit(ctx context.Context, seed int64, tr *obs.Trace) (fleet.Result, int, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return fleet.Result{}, 0, ErrShutdown
	}
	if seed != 0 {
		b.active++
		b.mu.Unlock()
		defer b.passDone()
		b.batches.Add(1)
		b.observe("classify", 1)
		sp := tr.Root().Child(obs.StageFleet)
		res, err := b.sched.Classify(ctx, fleet.Request{Seed: seed, Span: sp})
		sp.End()
		return res, 1, err
	}
	c := &call{ch: make(chan callOut, 1), traced: tr != nil}
	wait := tr.Root().Child(obs.StageBatchWait)
	b.enqueue(&b.cls, c, 1)
	select {
	case out := <-c.ch:
		b.graft(tr, wait, out)
		return out.res, out.batch, out.err
	case <-ctx.Done():
		wait.End()
		b.abandon(c)
		return fleet.Result{}, 0, ctx.Err()
	}
}

// SubmitInfer classifies the caller's images, coalescing them with other
// callers' submissions into shared micro-batches. It reports the
// per-image outputs, the serving board and rail, and the image count of
// the accelerator submission the call was amortized across. A non-zero
// seed (or a call that alone fills a micro-batch) gets a dedicated pass.
func (b *batcher) SubmitInfer(ctx context.Context, imgs []*tensor.Tensor, seed int64, tr *obs.Trace) ([]fleet.InferOutput, string, float64, int, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, "", 0, 0, ErrShutdown
	}
	if seed != 0 || len(imgs) >= b.inf.size {
		b.active++
		b.mu.Unlock()
		defer b.passDone()
		b.inferBatches.Add(1)
		b.observe("infer", len(imgs))
		sp := tr.Root().Child(obs.StageFleet)
		res, err := b.sched.Infer(ctx, fleet.InferRequest{Images: imgs, Seed: seed, Span: sp})
		sp.End()
		if err != nil {
			return nil, "", 0, 0, err
		}
		return res.Outputs, res.Board, res.VCCINTmV, len(imgs), nil
	}
	c := &call{imgs: imgs, ch: make(chan callOut, 1), traced: tr != nil}
	wait := tr.Root().Child(obs.StageBatchWait)
	b.enqueue(&b.inf, c, len(imgs))
	select {
	case out := <-c.ch:
		b.graft(tr, wait, out)
		return out.inf, out.board, out.mv, out.batch, out.err
	case <-ctx.Done():
		wait.End()
		b.abandon(c)
		return nil, "", 0, 0, ctx.Err()
	}
}

// graft lands a flushed batch's shared fleet subtree in one caller's
// trace: the batch_wait span ends at the instant the batch was claimed,
// the job buffer's spans are copied under the caller's root, and the
// last waiter to finish returns the buffer to the tracer's pool. An
// abandoned waiter never releases its reference; its batch's buffer
// falls to the garbage collector instead of the pool, which is safe.
func (b *batcher) graft(tr *obs.Trace, wait *obs.Span, out callOut) {
	if out.claimedNS != 0 {
		wait.EndAt(out.claimedNS)
	} else {
		wait.End()
	}
	if out.jt == nil {
		return
	}
	tr.Root().Graft(out.jt)
	if out.jt.Release() {
		b.tracer.ReleaseJob(out.jt)
	}
}

// jobTrace builds the shared fleet-job span buffer for a claimed batch
// when at least one waiter is traced, arming one buffer reference per
// waiter. The claim timestamp it returns is each caller's batch_wait
// end stamp.
func (b *batcher) jobTrace(batch []*call) (*obs.Trace, int64) {
	traced := false
	for _, c := range batch {
		if c.traced {
			traced = true
			break
		}
	}
	if !traced {
		return nil, 0
	}
	jt := b.tracer.JobTrace()
	if jt == nil {
		return nil, 0
	}
	jt.SetRefs(len(batch))
	return jt, obs.NowNS()
}

// enqueue appends a waiter to a group under b.mu (held on entry,
// released on return). The batch leaves at once if that fills it or a
// board is free; otherwise its first waiter arms the window.
func (b *batcher) enqueue(g *group, c *call, units int) {
	defer b.mu.Unlock()
	b.seq++
	c.seq = b.seq
	g.pending = append(g.pending, c)
	g.units += units
	if g.units >= g.size {
		b.claim(g)
		return
	}
	b.dispatch()
	if len(g.pending) > 0 && g.timer == nil {
		gen := g.gen
		g.timer = time.AfterFunc(b.window, func() { b.flush(g, gen) })
	}
}

// dispatch claims pending batches while a board is free, the queue with
// the older head waiter first. Caller holds b.mu.
func (b *batcher) dispatch() {
	for b.active < b.sched.Size() {
		var g *group
		for _, q := range []*group{&b.cls, &b.inf} {
			if len(q.pending) > 0 && (g == nil || q.pending[0].seq < g.pending[0].seq) {
				g = q
			}
		}
		if g == nil {
			return
		}
		b.claim(g)
	}
}

// claim takes a group's pending batch, advances its generation and
// starts the pass. Caller holds b.mu.
func (b *batcher) claim(g *group) {
	batch := g.pending
	g.pending = nil
	g.units = 0
	g.gen++
	if g.timer != nil {
		g.timer.Stop()
		g.timer = nil
	}
	if len(batch) == 0 {
		return
	}
	b.active++
	g.run(batch)
}

// passDone retires one claimed pass and hands the lane it freed to
// whatever is pending.
func (b *batcher) passDone() {
	b.mu.Lock()
	b.active--
	b.dispatch()
	b.mu.Unlock()
}

// flush is the window-expiry path. gen identifies the batch the timer
// was armed for; a mismatch means that batch was already claimed and the
// pending list now holds fresh waiters whose window has not expired.
func (b *batcher) flush(g *group, gen int64) {
	b.mu.Lock()
	if gen == g.gen {
		b.claim(g)
	}
	b.mu.Unlock()
}

// abandon removes a canceled waiter that is still pending, so it does
// not inflate the next flushed batch's size or the coalesced counters.
// A waiter whose batch was already claimed is left alone: its pass is
// shared work for its batch-mates and its result slot is buffered.
func (b *batcher) abandon(c *call) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, g := range []*group{&b.cls, &b.inf} {
		for i, pc := range g.pending {
			if pc != c {
				continue
			}
			g.pending = append(g.pending[:i], g.pending[i+1:]...)
			g.units -= max(len(c.imgs), 1)
			b.canceled.Add(1)
			if len(g.pending) == 0 && g.timer != nil {
				// Nothing left to flush: retire the window (and
				// invalidate it if it already fired and is waiting on
				// b.mu) so a later first waiter arms a fresh one.
				g.timer.Stop()
				g.timer = nil
				g.gen++
			}
			return
		}
	}
}

// runEval serves one claimed classify batch asynchronously: a single
// pool pass, fanned out to every waiter. The batch context is
// independent of any one caller's, so a canceled client cannot fail its
// batch-mates. Called under b.mu, like runInfer: the claim is stamped
// here and the pass itself runs on its own goroutine.
func (b *batcher) runEval(batch []*call) {
	jt, claimed := b.jobTrace(batch)
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		b.batches.Add(1)
		b.coalesced.Add(int64(len(batch) - 1))
		b.observe("classify", len(batch))
		res, err := b.sched.Classify(context.Background(), fleet.Request{Span: jt.Root()})
		jt.Root().End()
		b.passDone()
		for _, c := range batch {
			c.ch <- callOut{res: res, batch: len(batch), err: err, jt: jt, claimedNS: claimed}
		}
	}()
}

// runInfer serves one claimed inference micro-batch asynchronously:
// every waiter's images merge into one fleet submission and each caller
// gets back exactly its own slice of the per-image outputs.
func (b *batcher) runInfer(batch []*call) {
	jt, claimed := b.jobTrace(batch)
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		asm := jt.Root().Child(obs.StageAssemble)
		var imgs []*tensor.Tensor
		for _, c := range batch {
			imgs = append(imgs, c.imgs...)
		}
		asm.End()
		b.inferBatches.Add(1)
		b.inferCoalesced.Add(int64(len(batch) - 1))
		b.observe("infer", len(imgs))
		res, err := b.sched.Infer(context.Background(), fleet.InferRequest{Images: imgs, Span: jt.Root()})
		jt.Root().End()
		b.passDone()
		lo := 0
		for _, c := range batch {
			hi := lo + len(c.imgs)
			out := callOut{batch: len(imgs), err: err, jt: jt, claimedNS: claimed}
			if err == nil {
				out.inf = res.Outputs[lo:hi]
				out.board = res.Board
				out.mv = res.VCCINTmV
			}
			c.ch <- out
			lo = hi
		}
	}()
}

// observe reports one accelerator pass to the metrics hook.
func (b *batcher) observe(kind string, units int) {
	if b.onBatch != nil {
		b.onBatch(kind, units)
	}
}

// Close flushes the pending batches, waits for in-flight passes, and
// rejects later submissions.
func (b *batcher) Close() {
	b.mu.Lock()
	b.closed = true
	b.claim(&b.cls)
	b.claim(&b.inf)
	b.mu.Unlock()
	b.wg.Wait()
}

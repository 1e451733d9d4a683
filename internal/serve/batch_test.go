package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"fpgauv/internal/fleet"
	"fpgauv/internal/obs"
	"fpgauv/internal/tensor"
)

// gatedSched is a real pool whose passes stop at a gate the test holds,
// so "every board is busy" is a state a test sets, not a race it hopes
// to win: a pass announces itself on arrived (its image count; 0 for a
// classify pass) and then blocks until the test releases it.
type gatedSched struct {
	fleet.Scheduler
	// arrived is buffered past the most passes any test here starts, so
	// announcing never blocks a pass the test is not watching.
	arrived  chan int
	release  chan struct{}
	openOnce sync.Once
}

func newGatedSched(t *testing.T, boards int) *gatedSched {
	t.Helper()
	pool, err := fleet.New(fleet.Config{Boards: boards, Tiny: true, Images: 4, CharRepeats: 1,
		MonitorInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	return &gatedSched{Scheduler: pool, arrived: make(chan int, 64), release: make(chan struct{})}
}

func (g *gatedSched) hold(ctx context.Context, units int) error {
	g.arrived <- units
	select {
	case <-g.release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *gatedSched) Infer(ctx context.Context, req fleet.InferRequest) (fleet.InferResult, error) {
	if err := g.hold(ctx, len(req.Images)); err != nil {
		return fleet.InferResult{}, err
	}
	return g.Scheduler.Infer(ctx, req)
}

func (g *gatedSched) Classify(ctx context.Context, req fleet.Request) (fleet.Result, error) {
	if err := g.hold(ctx, 0); err != nil {
		return fleet.Result{}, err
	}
	return g.Scheduler.Classify(ctx, req)
}

// releaseOne lets exactly one held pass through.
func (g *gatedSched) releaseOne() { g.release <- struct{}{} }

// open lets every held and future pass through.
func (g *gatedSched) open() { g.openOnce.Do(func() { close(g.release) }) }

// nextPass waits for the next pass to reach the scheduler and reports
// its image count.
func (g *gatedSched) nextPass(t *testing.T) int {
	t.Helper()
	select {
	case n := <-g.arrived:
		return n
	case <-time.After(10 * time.Second):
		t.Fatal("no pass reached the scheduler")
		return 0
	}
}

// noPass asserts that nothing further has reached the scheduler.
func (g *gatedSched) noPass(t *testing.T) {
	t.Helper()
	select {
	case n := <-g.arrived:
		t.Fatalf("a pass (%d images) reached the scheduler while every board was busy", n)
	default:
	}
}

// image is one valid (all-zero) inference input.
func (g *gatedSched) image() []*tensor.Tensor {
	shape := g.InputShape()
	return []*tensor.Tensor{tensor.New(shape.C, shape.H, shape.W)}
}

// newTestBatcher builds a batcher over a gated pool of the given board
// count. The gate is opened before the batcher closes, so a test may
// end with passes still held.
func newTestBatcher(t *testing.T, boards, size int, window time.Duration) (*batcher, *gatedSched) {
	t.Helper()
	g := newGatedSched(t, boards)
	b := newBatcher(g, size, 16, window)
	t.Cleanup(func() {
		g.open()
		b.Close()
	})
	return b, g
}

// occupy holds one board with a dedicated (pinned-seed) infer pass and
// returns once it is at the gate; the channel closes when it is served.
func occupy(t *testing.T, b *batcher, g *gatedSched) <-chan struct{} {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, _, _, _, err := b.SubmitInfer(context.Background(), g.image(), 1, nil); err != nil {
			t.Errorf("occupying pass: %v", err)
		}
	}()
	if n := g.nextPass(t); n != 1 {
		t.Fatalf("occupying pass carried %d images, want 1", n)
	}
	return done
}

// waitPending spins until a queue holds n waiters. Every caller has set
// up a state in which it must.
func waitPending(t *testing.T, b *batcher, q *group, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		b.mu.Lock()
		got := len(q.pending)
		b.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pending = %d, want %d", got, n)
		}
		runtime.Gosched()
	}
}

// Regression for the stale window-timer race: a timer that fires but
// loses the lock to another claim of its batch must NOT flush the next
// batch's fresh waiters before their window expires. The sequence is
// replayed by hand: with the only board busy a waiter is held and arms
// the window; the batch is claimed and a fresh waiter arrives under one
// hold of b.mu; then the timer's flush runs with the generation it was
// armed for and must leave the fresh waiter alone.
func TestBatcherStaleTimerDoesNotStealFreshBatch(t *testing.T) {
	b, g := newTestBatcher(t, 1, 8, time.Hour)
	occupy(t, b, g)

	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		if _, _, err := b.Submit(context.Background(), 0, nil); err != nil {
			t.Errorf("first submit: %v", err)
		}
	}()
	waitPending(t, b, &b.cls, 1)

	b.mu.Lock()
	if b.cls.timer == nil {
		b.mu.Unlock()
		t.Fatal("held waiter armed no window timer")
	}
	armed := b.cls.gen
	b.claim(&b.cls)
	fresh := &call{ch: make(chan callOut, 1)}
	b.cls.pending = append(b.cls.pending, fresh)
	b.cls.units++
	b.mu.Unlock()

	b.flush(&b.cls, armed)

	b.mu.Lock()
	got := len(b.cls.pending)
	b.mu.Unlock()
	if got != 1 {
		t.Fatalf("pending = %d after the stale timer ran, want 1 (fresh waiter must survive)", got)
	}
	select {
	case <-fresh.ch:
		t.Fatal("fresh waiter was flushed by the stale timer")
	default:
	}
	g.open()
	<-firstDone
}

// Regression for the canceled-waiter leak: a caller that cancels while
// its call is still pending must be removed from the batch, so it
// neither inflates the coalesced count nor pads the next flush's batch
// size.
func TestBatcherCanceledWaiterRemoved(t *testing.T) {
	b, g := newTestBatcher(t, 1, 8, time.Hour)
	occupied := occupy(t, b, g)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := b.Submit(ctx, 0, nil)
		done <- err
	}()
	waitPending(t, b, &b.cls, 1)
	b.mu.Lock()
	armed := b.cls.gen
	b.mu.Unlock()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// The waiter is gone and the window timer was retired with it.
	b.mu.Lock()
	pending, timer := len(b.cls.pending), b.cls.timer
	b.mu.Unlock()
	if pending != 0 {
		t.Fatalf("pending = %d after cancel, want 0", pending)
	}
	if timer != nil {
		t.Error("window timer still armed for an empty batch")
	}
	if got := b.canceled.Load(); got != 1 {
		t.Errorf("canceled = %d, want 1", got)
	}

	// The original window firing late, and the busy board coming free:
	// neither may run a phantom batch.
	b.flush(&b.cls, armed)
	g.open()
	<-occupied
	if got := b.batches.Load(); got != 0 {
		t.Errorf("batches = %d, want 0 (canceled waiter must not cost a pass)", got)
	}

	// A live call still flushes normally, with batch size 1 — not
	// padded by the ghost of the canceled waiter.
	_, size, err := b.Submit(context.Background(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if size != 1 {
		t.Errorf("batch size = %d, want 1", size)
	}
	if got := b.coalesced.Load(); got != 0 {
		t.Errorf("coalesced = %d, want 0", got)
	}
}

// A canceled waiter in the middle of a larger pending batch: the
// remaining batch-mates flush together and report the reduced size.
func TestBatcherCancelMidBatch(t *testing.T) {
	b, g := newTestBatcher(t, 1, 8, time.Hour)
	occupy(t, b, g)

	ctxA, cancelA := context.WithCancel(context.Background())
	resA := make(chan error, 1)
	go func() {
		_, _, err := b.Submit(ctxA, 0, nil)
		resA <- err
	}()
	waitPending(t, b, &b.cls, 1)
	type out struct {
		size int
		err  error
	}
	resB := make(chan out, 1)
	go func() {
		_, size, err := b.Submit(context.Background(), 0, nil)
		resB <- out{size, err}
	}()
	waitPending(t, b, &b.cls, 2)
	cancelA()
	if err := <-resA; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	g.open() // the busy board frees and takes what is pending: B alone
	got := <-resB
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.size != 1 {
		t.Errorf("batch size = %d, want 1 (canceled mate removed before flush)", got.size)
	}
	if c := b.coalesced.Load(); c != 0 {
		t.Errorf("coalesced = %d, want 0", c)
	}
}

// With a board free a lone request is dispatched at once: it never
// meets the window (an hour here), and its batch_wait span is noise.
func TestBatcherIdleDispatchesAtOnce(t *testing.T) {
	b, g := newTestBatcher(t, 1, 8, time.Hour)
	g.open()
	tracer := obs.NewTracer(4)
	tracer.SetEnabled(true)
	b.tracer = tracer

	tr := tracer.Start("")
	_, _, _, batch, err := b.SubmitInfer(context.Background(), g.image(), 0, tr)
	if err != nil {
		t.Fatal(err)
	}
	if batch != 1 {
		t.Errorf("batch size = %d, want 1", batch)
	}
	var wait *obs.Span
	for i := 0; i < tr.Len(); i++ {
		if sp := tr.At(i); sp.Name() == obs.StageBatchWait {
			wait = sp
		}
	}
	if wait == nil {
		t.Fatal("trace has no batch_wait span")
	}
	if d := time.Duration(wait.DurNS()); d >= time.Millisecond {
		t.Errorf("batch_wait = %v on an idle board, want < 1ms", d)
	}
}

// A burst of N on B idle boards leaves as at most B singles; the rest
// are held while every board is busy and coalesce into one pass when a
// lane frees.
func TestBatcherBurstCoalescesBeyondBoards(t *testing.T) {
	const boards, burst = 2, 7
	b, g := newTestBatcher(t, boards, 8, time.Hour)

	sizes := make(chan int, burst)
	for i := 0; i < burst; i++ {
		go func() {
			_, _, _, batch, err := b.SubmitInfer(context.Background(), g.image(), 0, nil)
			if err != nil {
				t.Errorf("submit: %v", err)
			}
			sizes <- batch
		}()
	}
	for i := 0; i < boards; i++ {
		if n := g.nextPass(t); n != 1 {
			t.Fatalf("pass %d carried %d images, want a single", i, n)
		}
	}
	waitPending(t, b, &b.inf, burst-boards)
	g.noPass(t)

	g.open()
	if n := g.nextPass(t); n != burst-boards {
		t.Errorf("coalesced pass carried %d images, want %d", n, burst-boards)
	}
	singles := 0
	for i := 0; i < burst; i++ {
		switch n := <-sizes; n {
		case 1:
			singles++
		case burst - boards:
		default:
			t.Errorf("caller saw batch size %d, want 1 or %d", n, burst-boards)
		}
	}
	if singles != boards {
		t.Errorf("%d callers were served alone, want %d", singles, boards)
	}
	if got := b.inferBatches.Load(); got != boards+1 {
		t.Errorf("infer passes = %d, want %d", got, boards+1)
	}
}

// A held waiter leaves when a pass of this batcher finishes, not when
// its window (an hour here) runs out.
func TestBatcherPendingFlushesOnPassCompletion(t *testing.T) {
	b, g := newTestBatcher(t, 1, 8, time.Hour)
	occupied := occupy(t, b, g)

	done := make(chan error, 1)
	go func() {
		_, _, _, _, err := b.SubmitInfer(context.Background(), g.image(), 0, nil)
		done <- err
	}()
	waitPending(t, b, &b.inf, 1)
	g.noPass(t)

	g.releaseOne()
	<-occupied
	if n := g.nextPass(t); n != 1 {
		t.Fatalf("freed lane took %d images, want the 1 pending", n)
	}
	g.releaseOne()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// While no pass of this batcher completes, the window still bounds how
// long a waiter is held: its batch reaches the scheduler (and queues
// there) with the only board still busy.
func TestBatcherWindowBoundsHold(t *testing.T) {
	b, g := newTestBatcher(t, 1, 8, 5*time.Millisecond)
	occupied := occupy(t, b, g)

	done := make(chan error, 1)
	go func() {
		_, _, err := b.Submit(context.Background(), 0, nil)
		done <- err
	}()
	g.nextPass(t) // the held waiter's batch, flushed by its window
	select {
	case <-occupied:
		t.Fatal("the busy board was released before the window flushed")
	default:
	}
	g.open()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// Close flushes held waiters, waits for their passes, and rejects
// later submissions.
func TestBatcherCloseWithHeldWaiters(t *testing.T) {
	b, g := newTestBatcher(t, 1, 8, time.Hour)
	occupy(t, b, g)

	errs := make(chan error, 3)
	for i := 0; i < 2; i++ {
		go func() {
			_, _, _, _, err := b.SubmitInfer(context.Background(), g.image(), 0, nil)
			errs <- err
		}()
	}
	go func() {
		_, _, err := b.Submit(context.Background(), 0, nil)
		errs <- err
	}()
	waitPending(t, b, &b.inf, 2)
	waitPending(t, b, &b.cls, 1)

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		b.Close()
	}()
	if first, second := g.nextPass(t), g.nextPass(t); first+second != 2 {
		t.Errorf("Close flushed passes of %d and %d images, want one classify pass and one of 2 images", first, second)
	}
	select {
	case <-closed:
		t.Fatal("Close returned with its flushed passes still held")
	default:
	}
	g.open()
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Errorf("held waiter: %v", err)
		}
	}
	<-closed
	if _, _, err := b.Submit(context.Background(), 0, nil); !errors.Is(err, ErrShutdown) {
		t.Errorf("submit after Close: err = %v, want ErrShutdown", err)
	}
}

package fleet

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"fpgauv/internal/tensor"
)

// saturateTestPool builds a one-board pool with a single backlog slot,
// occupies the lone worker with a long cancelable inference job, and
// fills the backlog slot behind it, leaving the pool in a steady
// saturated state: every further submission must shed. The returned
// release func cancels the occupier and tears the pool down.
func saturateTestPool(tb testing.TB) (*Pool, func()) {
	tb.Helper()
	cfg := testConfig(1)
	cfg.MaxQueue = 1
	cfg.MonitorInterval = -1
	// One image per accelerator pass: a many-image infer job holds the
	// single worker busy for its full image count.
	cfg.MicroBatch = 1
	p, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}

	waitFor := func(what string, cond func() bool) {
		tb.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				p.Close()
				tb.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	// The occupier re-uses one tiny image many times over: 1<<15 single
	// image micro-batches outlast any benchmark loop, and the worker
	// abandons the job at the next micro-batch boundary once the context
	// is canceled.
	shape := p.InputShape()
	img := tensor.New(shape.C, shape.H, shape.W)
	imgs := make([]*tensor.Tensor, 1<<15)
	for i := range imgs {
		imgs[i] = img
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Error expected on cancel (context.Canceled); ignored.
		_, _ = p.Infer(ctx, InferRequest{Images: imgs, Seed: 3})
	}()
	waitFor("worker busy", func() bool { return p.InFlight() == 1 })

	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = p.Classify(ctx, Request{Seed: 5})
	}()
	waitFor("backlog full", func() bool { return p.QueueDepth() == 1 })

	return p, func() {
		cancel()
		wg.Wait()
		p.Close()
	}
}

// BenchmarkShedPath measures the refusal fast path end to end: a
// saturated pool refusing a Classify submission. This is the path a
// scheduler runs hottest exactly when it is overloaded —
// BenchmarkClusterOpenLoop showed served throughput sagging as offered
// load rose past capacity, driven by shed-path garbage competing with
// real work for the allocator. The B/op column pins the path's
// allocation cost: with the interned error cache and the pre-allocation
// quickShed check it must stay at (or within noise of) zero.
func BenchmarkShedPath(b *testing.B) {
	p, release := saturateTestPool(b)
	defer release()
	b.ReportAllocs()
	b.ResetTimer()
	var err error
	for i := 0; i < b.N; i++ {
		_, err = p.Classify(context.Background(), Request{Seed: 9})
		if err == nil {
			b.Fatal("saturated pool served a request")
		}
	}
	b.StopTimer()
	var sat ErrSaturated
	if !errors.As(err, &sat) {
		b.Fatalf("err = %v, want ErrSaturated", err)
	}
}

// TestShedErrAllocFree pins the allocation-free refusal contract at its
// deterministic core: once a (depth, retry-bucket) cell is warm, the
// pool's shed-error construction performs zero heap allocations, and a
// saturated pool keeps serving the identical interned error value.
func TestShedErrAllocFree(t *testing.T) {
	cfg := testConfig(1)
	cfg.MaxQueue = 1
	cfg.MonitorInterval = -1
	p := newTestPool(t, cfg)

	warm := p.saturatedErr(1)
	var sat ErrSaturated
	if !errors.As(warm, &sat) {
		t.Fatalf("saturatedErr returned %T", warm)
	}
	if sat.RetryAfter <= 0 || sat.Scheduler == "" {
		t.Fatalf("hint not populated: %+v", sat)
	}
	if again := p.saturatedErr(1); again != warm {
		t.Errorf("interned error not reused: %v vs %v", again, warm)
	}
	// AllocsPerRun measures the whole process; the pool is idle here
	// (workers parked on the queue, monitor disabled) so the count is
	// deterministic.
	if allocs := testing.AllocsPerRun(200, func() {
		_ = p.saturatedErr(1)
	}); allocs != 0 {
		t.Errorf("saturatedErr allocates %.1f objects/op, want 0", allocs)
	}
	// The advisory pre-check's admit path (backlog below bound) must be
	// free too — it runs on every single admitted request.
	if allocs := testing.AllocsPerRun(200, func() {
		if err := p.quickShed(); err != nil {
			t.Errorf("idle pool shed: %v", err)
		}
	}); allocs != 0 {
		t.Errorf("quickShed allocates %.1f objects/op, want 0", allocs)
	}
}

// TestShedErrDepthAndBucketClamps pins the intern cache's quantization:
// depths clamp to the cap, retry hints round up onto the bucket ladder,
// and distinct cells yield distinct errors.
func TestShedErrDepthAndBucketClamps(t *testing.T) {
	var c SatErrCache
	e := c.Err("p", 10_000, 3*time.Second)
	var sat ErrSaturated
	if !errors.As(e, &sat) {
		t.Fatalf("Err returned %T", e)
	}
	if sat.Depth != 64 {
		t.Errorf("Depth = %d, want clamp to 64", sat.Depth)
	}
	if sat.RetryAfter != 5*time.Second {
		t.Errorf("RetryAfter = %v, want round-up to 5s", sat.RetryAfter)
	}
	if neg := c.Err("p", -3, 0); !errors.As(neg, &sat) || sat.Depth != 0 {
		t.Errorf("negative depth: %+v", sat)
	}
	a := c.Err("p", 2, 30*time.Millisecond)
	b := c.Err("p", 2, 40*time.Millisecond)
	if a != b {
		t.Errorf("same bucket produced distinct errors: %v vs %v", a, b)
	}
	if d := c.Err("p", 3, 30*time.Millisecond); d == a {
		t.Errorf("distinct depths interned identically: %v", d)
	}
}

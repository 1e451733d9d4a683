package fleet

import (
	"context"
	"testing"

	"fpgauv/internal/dnndk"
	"fpgauv/internal/models"
)

// TestTraceStorePoolLifetime: the two boards of a pool deploy the same
// kernel and dataset: they compile the kernel once and record its golden
// run once, and both hold each. Crash/recover cycles swap a board's task
// without growing either store, and closing the pool, which unloads
// every task, empties both. The pool deploys at INT7, a precision no
// other test here deploys, so the kernel-store entry is the pool's alone.
func TestTraceStorePoolLifetime(t *testing.T) {
	cfg := Config{Boards: 2, Benchmark: "VGGNet", Tiny: true, Bits: 7, Images: 12, Seed: 4242, CharRepeats: 1, MonitorInterval: -1}
	bench, _ := models.New(cfg.Benchmark, models.Tiny)
	fp := bench.MakeDataset(cfg.Images, cfg.Seed).Fingerprint()
	held := func(at string, entries, refs int) {
		t.Helper()
		if e, r := dnndk.TraceStoreHeld(fp); e != entries || r != refs {
			t.Fatalf("%s: %d trace entries holding %d references, want %d and %d", at, e, r, entries, refs)
		}
		if e, r := dnndk.KernelStoreHeld(cfg.Benchmark, cfg.Bits); e != entries || r != refs {
			t.Fatalf("%s: %d kernel entries holding %d references, want %d and %d", at, e, r, entries, refs)
		}
	}
	held("before the pool", 0, 0)
	p := newTestPool(t, cfg)
	held("after bring-up", 1, 2)

	// Each job fails once as a crash does on whichever board takes it,
	// so every job is one crash/recover cycle.
	const cycles = 4
	for cycle := int64(1); cycle <= cycles; cycle++ {
		if err := p.InjectFailures(-1, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Classify(context.Background(), Request{Seed: cycle}); err != nil {
			t.Fatal(err)
		}
		if got := p.Status().Redeploys; got != cycle {
			t.Fatalf("after job %d: %d redeploys, want %d", cycle, got, cycle)
		}
		held("after a crash/recover cycle", 1, 2)
	}
	p.Close()
	held("after Close", 0, 0)
}

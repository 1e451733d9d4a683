package fleet

import (
	"context"
	"sync"
	"testing"

	"fpgauv/internal/quant"
)

// TestConcurrentClassifiesSharedGemmPool hammers the process-wide GEMM
// tile worker pool from many directions at once: the pool is pinned
// wider than one, several boards serve concurrently, and classify/infer
// traffic arrives from many caller goroutines. An 8-image evaluation
// pass is four lanes on the four-wide pool — one pool job, its GEMMs
// serial inside the lanes — while a 3-image infer is two lanes, fewer
// than the pool, so its lanes' tiled GEMMs fan out again from inside.
// Both shapes share helpers across boards. Under -race this proves jobs from
// unrelated requests never share mutable state — disjoint dst tiles,
// refcounted job recycling, and per-lane arena scratch all hold up
// under oversubscription — and that the pool's counters, read through
// Status while it runs, account for the work.
func TestConcurrentClassifiesSharedGemmPool(t *testing.T) {
	defer quant.SetWorkers(0)
	quant.SetWorkers(4)
	p := newTestPool(t, testConfig(2))
	imgs := inferImages(t, p, 3, 5)
	before := p.Status().GemmPool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 4; n++ {
				if g%2 == 0 {
					if _, err := p.Classify(context.Background(), Request{Seed: int64(1 + (g+n)%3)}); err != nil {
						t.Errorf("classify: %v", err)
						return
					}
				} else {
					if _, err := p.Infer(context.Background(), InferRequest{Images: imgs}); err != nil {
						t.Errorf("infer: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := p.Status()
	if got := st.GemmPool; got.Jobs <= before.Jobs || got.CallerTiles <= before.CallerTiles {
		t.Fatalf("tile pool counters did not move under load: %+v -> %+v", before, got)
	}
	if st.GemmWorkers != 4 {
		t.Fatalf("Status().GemmWorkers = %d, want 4", st.GemmWorkers)
	}
	if st.Served == 0 {
		t.Fatal("no requests served")
	}
}

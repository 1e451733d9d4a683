package fleet

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpgauv/internal/silicon"
)

// nearMV compares rail levels with the regulator's DAC quantization in
// mind: a commanded 565 mV reads back as 564.94 mV.
func nearMV(a, b float64) bool { return math.Abs(a-b) <= 1 }

// testConfig is the fast protocol shared by the fleet tests: tiny model
// zoo, small evaluation set, single-repeat characterization.
func testConfig(boards int) Config {
	return Config{
		Boards:      boards,
		Benchmark:   "VGGNet",
		Tiny:        true,
		Images:      8,
		CharRepeats: 1,
	}
}

func newTestPool(t *testing.T, cfg Config) *Pool {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// The pool must hold every board at an underscaled operating point inside
// the guardband — at or below 620 mV, above the board's measured Vcrash —
// and serve fault-free classifications there.
func TestPoolOperatesUnderscaled(t *testing.T) {
	p := newTestPool(t, testConfig(3))
	st := p.Status()
	if len(st.Boards) != 3 {
		t.Fatalf("boards = %d, want 3", len(st.Boards))
	}
	for _, b := range st.Boards {
		if b.OperatingMV > 620 {
			t.Errorf("%s: operating point %.0f mV above 620 mV", b.Board, b.OperatingMV)
		}
		if !nearMV(b.VCCINTmV, b.OperatingMV) {
			t.Errorf("%s: VCCINT %.1f mV not at operating point %.0f mV", b.Board, b.VCCINTmV, b.OperatingMV)
		}
		if !(silicon.VnomMV > b.VminMV && b.VminMV > b.VcrashMV) {
			t.Errorf("%s: want Vnom > Vmin > Vcrash, got %.0f / %.0f / %.0f",
				b.Board, silicon.VnomMV, b.VminMV, b.VcrashMV)
		}
		if b.OperatingMV <= b.VcrashMV {
			t.Errorf("%s: operating point %.0f mV not above Vcrash %.0f mV", b.Board, b.OperatingMV, b.VcrashMV)
		}
	}
	res, err := p.Classify(context.Background(), Request{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AccuracyPct <= 0 {
		t.Errorf("accuracy = %.1f%%, want > 0", res.AccuracyPct)
	}
	if res.MACFaults != 0 || res.BRAMFaults != 0 {
		t.Errorf("faults inside the guardband: MAC=%d BRAM=%d", res.MACFaults, res.BRAMFaults)
	}
	if res.VCCINTmV > 620 {
		t.Errorf("served at %.0f mV, want <= 620", res.VCCINTmV)
	}
}

// The three samples are characterized independently; the paper's §8
// finding is that "identical" boards differ. At least one pair of boards
// must disagree on Vmin or Vcrash.
func TestPoolCharacterizationVariability(t *testing.T) {
	p := newTestPool(t, testConfig(3))
	bs := p.Status().Boards
	varies := false
	for i := 1; i < len(bs); i++ {
		if bs[i].VminMV != bs[0].VminMV || bs[i].VcrashMV != bs[0].VcrashMV {
			varies = true
		}
	}
	if !varies {
		t.Errorf("all three samples characterized identically: %+v", bs)
	}
}

// Boards of the same silicon sample reuse the cached characterization
// instead of re-running the sweep.
func TestPoolCharacterizationCache(t *testing.T) {
	p := newTestPool(t, testConfig(6))
	bs := p.Status().Boards
	for i := 3; i < 6; i++ {
		if bs[i].VminMV != bs[i-3].VminMV || bs[i].VcrashMV != bs[i-3].VcrashMV {
			t.Errorf("board %d and %d share a sample but differ: %+v vs %+v", i, i-3, bs[i], bs[i-3])
		}
		if bs[i].Reboots != 0 {
			t.Errorf("board %d re-ran the characterization sweep (%d reboots) despite the cache", i, bs[i].Reboots)
		}
	}
}

// The acceptance scenario: >=3 boards, >=100 concurrent requests at an
// underscaled VCCINT, zero dropped requests, while at least one induced
// crash/reboot/re-deploy cycle happens underneath the traffic.
func TestPoolCrashRecoveryNoLostWork(t *testing.T) {
	cfg := testConfig(3)
	cfg.MonitorInterval = -1 // recovery must come from the serving path
	p := newTestPool(t, cfg)

	// Drive every board below its Vcrash while idle: the crash latches
	// on the next liveness check, so the first request each board picks
	// up hits ErrHung and must ride out reboot -> re-deploy -> retry.
	if err := p.SetVCCINTmV(-1, 500); err != nil {
		t.Fatal(err)
	}

	var failures atomic.Int64
	burst := func(n int) {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := p.Classify(context.Background(), Request{})
				if err != nil {
					failures.Add(1)
					t.Errorf("classify: %v", err)
					return
				}
				if res.AccuracyPct <= 0 {
					failures.Add(1)
					t.Errorf("classify on %s: accuracy %.1f%%", res.Board, res.AccuracyPct)
				}
			}()
		}
		wg.Wait()
	}
	idle := func() (n int) {
		for _, b := range p.Status().Boards {
			if b.Served == 0 {
				n++
			}
		}
		return n
	}
	requests := 120
	burst(requests)
	// Healed peers serve a fault-free request in microseconds, so the
	// shared queue can starve one board of the first wave entirely. With
	// the monitor off only a request heals it: follow-up bursts, bounded,
	// until every board has served one.
	for round := 0; idle() > 0; round++ {
		if round == 50 {
			t.Fatalf("%d boards served nothing after %d follow-up bursts", idle(), round)
		}
		burst(2 * cfg.Boards)
		requests += 2 * cfg.Boards
	}

	st := p.Status()
	if got := failures.Load(); got != 0 {
		t.Fatalf("%d of %d requests lost", got, requests)
	}
	if st.Served != int64(requests) {
		t.Errorf("served = %d, want %d", st.Served, requests)
	}
	if st.Crashes < 1 {
		t.Errorf("crashes = %d, want >= 1 (the induced crash was never detected)", st.Crashes)
	}
	if st.Redeploys < 1 {
		t.Errorf("redeploys = %d, want >= 1 (crashed board was not re-deployed)", st.Redeploys)
	}
	for _, b := range st.Boards {
		if b.Crashes < 1 || b.Redeploys < 1 {
			t.Errorf("%s: served %d requests with %d crashes and %d redeploys, want the first to crash and re-deploy",
				b.Board, b.Served, b.Crashes, b.Redeploys)
		}
		if !nearMV(b.VCCINTmV, b.OperatingMV) {
			t.Errorf("%s: VCCINT %.1f mV not restored to operating point %.0f mV after recovery",
				b.Board, b.VCCINTmV, b.OperatingMV)
		}
	}
}

// The idle-board health monitor must detect and heal a crash with no
// traffic routed to the pool at all.
func TestPoolMonitorHealsIdleBoard(t *testing.T) {
	cfg := testConfig(3)
	cfg.MonitorInterval = 5 * time.Millisecond
	p := newTestPool(t, cfg)

	if err := p.SetVCCINTmV(0, 500); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := p.Status()
		if st.Redeploys >= 1 && nearMV(st.Boards[0].VCCINTmV, st.Boards[0].OperatingMV) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("monitor never healed the idle crashed board: %+v", st.Boards[0])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Concurrency hammer for -race: 8 goroutines of traffic, a voltage
// wiggler, a status poller and the health monitor all run against the
// same pool.
func TestPoolConcurrentHammer(t *testing.T) {
	cfg := testConfig(3)
	cfg.Images = 4
	cfg.MonitorInterval = 2 * time.Millisecond
	p := newTestPool(t, cfg)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if _, err := p.Classify(context.Background(), Request{Seed: int64(g*100 + i + 1)}); err != nil {
					t.Errorf("classify: %v", err)
				}
			}
		}(g)
	}
	// Voltage wiggler: drops one board below Vcrash and back while
	// traffic flows; recovery restores the operating point each time.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if err := p.SetVCCINTmV(i%3, 500); err != nil {
				t.Errorf("set voltage: %v", err)
			}
			time.Sleep(3 * time.Millisecond)
		}
	}()
	// Status poller.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			_ = p.Status()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	if st := p.Status(); st.Served != 48 {
		t.Errorf("served = %d, want 48", st.Served)
	}
}

// After Close the pool rejects new work, finishes what was queued, and
// returns the boards to nominal rails.
func TestPoolCloseDrainsAndRestoresNominal(t *testing.T) {
	p := newTestPool(t, testConfig(3))
	for i := 0; i < 5; i++ {
		if _, err := p.Classify(context.Background(), Request{}); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	if _, err := p.Classify(context.Background(), Request{}); !errors.Is(err, ErrClosed) {
		t.Errorf("classify after close: err = %v, want ErrClosed", err)
	}
	for _, b := range p.Status().Boards {
		if !nearMV(b.VCCINTmV, silicon.VnomMV) {
			t.Errorf("%s: VCCINT %.1f mV after close, want nominal %.0f", b.Board, b.VCCINTmV, silicon.VnomMV)
		}
	}
}

// Context cancellation abandons the wait but never corrupts the pool.
func TestPoolClassifyContextCancel(t *testing.T) {
	p := newTestPool(t, testConfig(1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Classify(ctx, Request{}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	// The pool still serves after an abandoned request.
	if _, err := p.Classify(context.Background(), Request{}); err != nil {
		t.Fatal(err)
	}
}

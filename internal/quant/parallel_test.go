package quant

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// randI8 fills a fresh length-n slice with random int8 values across
// the full code range.
func randI8(rng *rand.Rand, n int) []int8 {
	s := make([]int8, n)
	for i := range s {
		s[i] = int8(rng.Intn(256) - 128)
	}
	return s
}

// gemmOracle is the independent naive reference: a plain triple loop
// with no blocking, tiling, or parallelism, shared by every bit-exact
// test below.
func gemmOracle(a, bt []int8, m, k, n int, bias []int32) []int32 {
	dst := make([]int32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := bias[i]
			for p := 0; p < k; p++ {
				s += int32(a[i*k+p]) * int32(bt[j*k+p])
			}
			dst[i*n+j] = s
		}
	}
	return dst
}

// patchRHS presents a patch-major matrix — slabs of n columns × k codes,
// the lowering an explicit im2col produces — to the block kernel as the
// degenerate frame geometry: one channel, one kernel row k wide, stride k.
func patchRHS(bt []int8, n, k int) rhs {
	return rhs{frame: bt, kw: k, stride: k, outW: n, span: k}
}

func assertSameInt32(t *testing.T, ctx string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d: got %d want %d", ctx, i, got[i], want[i])
		}
	}
}

// TestTiledGemmBitExactGrid pins the tentpole invariant: the tiled
// parallel GEMM is bit-exact against both the serial register-blocked
// kernel and the naive oracle across ragged shapes (M/N/K straddling
// the register tile, the macro-tile, and worker-count boundaries) at
// every worker count.
func TestTiledGemmBitExactGrid(t *testing.T) {
	defer SetWorkers(0)
	rng := rand.New(rand.NewSource(8))
	ms := []int{1, 3, 4, 31, 32, 33, 65}
	ns := []int{1, 2, 63, 64, 65, 130}
	ks := []int{1, 7, 63}
	for _, m := range ms {
		for _, n := range ns {
			for _, k := range ks {
				a := randI8(rng, m*k)
				bt := randI8(rng, n*k)
				bias := randBias(rng, m)
				want := gemmOracle(a, bt, m, k, n, bias)
				serial := make([]int32, m*n)
				weights{dense: a}.gemmBlock(serial, n, 1, patchRHS(bt, n, k), 0, m, 0, n, k, bias)
				assertSameInt32(t, fmt.Sprintf("serial m=%d n=%d k=%d", m, n, k), serial, want)
				for _, w := range []int{1, 2, 3, 4, 5} {
					SetWorkers(w)
					got := make([]int32, m*n)
					gemmInt8Tiled(got, weights{dense: a}, patchRHS(bt, n, k), m, k, 1, n, bias, true)
					assertSameInt32(t, fmt.Sprintf("tiled m=%d n=%d k=%d workers=%d", m, n, k, w), got, want)
				}
				SetWorkers(0)
			}
		}
	}
}

// TestTiledMultiRHSBitExactFuzz fuzzes the stacked multi-slab path:
// random slab counts, ragged shapes, and worker counts, each compared
// element-for-element against per-slab naive oracles.
func TestTiledMultiRHSBitExactFuzz(t *testing.T) {
	defer SetWorkers(0)
	rng := rand.New(rand.NewSource(88))
	for iter := 0; iter < 150; iter++ {
		m := 1 + rng.Intn(70)
		k := 1 + rng.Intn(48)
		pix := 1 + rng.Intn(140)
		slabs := 1 + rng.Intn(5)
		a := randI8(rng, m*k)
		bt := randI8(rng, slabs*pix*k)
		bias := randBias(rng, m)
		SetWorkers(1 + rng.Intn(6))
		got := make([]int32, slabs*m*pix)
		gemmInt8Tiled(got, weights{dense: a}, patchRHS(bt, pix, k), m, k, slabs, pix, bias, true)
		for b := 0; b < slabs; b++ {
			want := gemmOracle(a, bt[b*pix*k:(b+1)*pix*k], m, k, pix, bias)
			assertSameInt32(t, fmt.Sprintf("iter=%d slab=%d m=%d k=%d pix=%d workers=%d", iter, b, m, k, pix, Workers()),
				got[b*m*pix:(b+1)*m*pix], want)
		}
	}
}

// TestTiledDenseBitExact walks the FC lowering — the batch of one and a
// batch of three — across ragged output widths and worker counts,
// against the naive oracle (an FC layer is the n=1-pixel GEMM with x as
// the lone patch column).
func TestTiledDenseBitExact(t *testing.T) {
	defer SetWorkers(0)
	rng := rand.New(rand.NewSource(888))
	outs := []int{1, 4, 5, 31, 32, 33, 64, 100}
	ins := []int{1, 9, 65}
	for _, out := range outs {
		for _, in := range ins {
			w := &QTensor{Data: randI8(rng, out*in), Dims: []int{out, in}, Scale: 1, Bits: 8}
			bias := randBias(rng, out)
			xs := make([]*QTensor, 3)
			for b := range xs {
				xs[b] = &QTensor{Data: randI8(rng, in), Dims: []int{in}, Scale: 1, Bits: 8}
			}
			for _, nw := range []int{1, 2, 4, 5} {
				SetWorkers(nw)
				var acc []int32
				if _, err := DenseInt8GemmBatch(xs[:1], w, bias, &acc); err != nil {
					t.Fatal(err)
				}
				want := gemmOracle(w.Data, xs[0].Data, out, in, 1, bias)
				assertSameInt32(t, fmt.Sprintf("dense out=%d in=%d workers=%d", out, in, nw), acc, want)
				var bacc []int32
				if _, err := DenseInt8GemmBatch(xs, w, bias, &bacc); err != nil {
					t.Fatal(err)
				}
				for b := range xs {
					want := gemmOracle(w.Data, xs[b].Data, out, in, 1, bias)
					// The batch layout is image-major (dst[b*out+o]), the
					// oracle's out×1 product is row-major — identical flat
					// order, so they compare directly.
					assertSameInt32(t, fmt.Sprintf("dense batch b=%d out=%d in=%d workers=%d", b, out, in, nw),
						bacc[b*out:(b+1)*out], want)
				}
			}
			SetWorkers(0)
		}
	}
}

// countJob marks each claimed index so tests can assert exactly-once
// execution of the whole index space.
type countJob struct {
	TileJob
	hits []atomic.Int32
}

func (c *countJob) Tile(i int)    { c.hits[i].Add(1) }
func (c *countJob) Job() *TileJob { return &c.TileJob }
func (c *countJob) Recycle()      {}

func checkAllOnce(t *testing.T, ctx string, hits []atomic.Int32) {
	t.Helper()
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("%s: index %d executed %d times, want 1", ctx, i, got)
		}
	}
}

// TestRunTilesCoverage checks the pool protocol itself: every index in
// [0, n) runs exactly once at widths spanning serial, partial, and
// saturated offers, including n smaller than the worker count.
func TestRunTilesCoverage(t *testing.T) {
	defer SetWorkers(0)
	for _, w := range []int{1, 2, 4, 16} {
		SetWorkers(w)
		for _, n := range []int{1, 2, 3, 16, 257} {
			c := &countJob{hits: make([]atomic.Int32, n)}
			RunTiles(n, c)
			checkAllOnce(t, fmt.Sprintf("workers=%d n=%d", w, n), c.hits)
		}
	}
}

// TestPoolStatsAccounting pins what the pool counters mean: a serial
// run is not a job; a fanned-out job is one job making Workers()-1
// offers, each of which ends accepted (a helper ran tiles) or refused
// (queue full, or drained before a helper got there); and every tile is
// counted once, to the caller or to a helper. Helper-side counts land
// after a drain returns, possibly after RunTiles has, so the test waits
// for the sums to settle; offers earlier tests left queued resolve
// (refused, their jobs long drained) during this one, so the offer count
// is a floor.
func TestPoolStatsAccounting(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(1)
	before := PoolStats()
	RunTiles(64, &countJob{hits: make([]atomic.Int32, 64)})
	if got := PoolStats(); got.Jobs != before.Jobs || got.CallerTiles != before.CallerTiles {
		t.Fatalf("serial run moved the pool counters: %+v -> %+v", before, got)
	}

	SetWorkers(4)
	const jobs, tiles = 20, 64
	for i := 0; i < jobs; i++ {
		RunTiles(tiles, &countJob{hits: make([]atomic.Int32, tiles)})
	}
	var d TilePoolStats
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		now := PoolStats()
		d = TilePoolStats{
			Jobs:        now.Jobs - before.Jobs,
			Accepted:    now.Accepted - before.Accepted,
			Refused:     now.Refused - before.Refused,
			CallerTiles: now.CallerTiles - before.CallerTiles,
			HelperTiles: now.HelperTiles - before.HelperTiles,
		}
		if d.Accepted+d.Refused >= jobs*3 && d.CallerTiles+d.HelperTiles == jobs*tiles {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool counters never settled: %+v, want %d offers and %d tiles", d, jobs*3, jobs*tiles)
		}
	}
	if d.Jobs != jobs {
		t.Fatalf("%d jobs counted, want %d", d.Jobs, jobs)
	}
	if d.HelperTiles > 0 && d.Accepted == 0 || d.HelperTiles == 0 && d.Accepted > 0 {
		t.Fatalf("helper tiles and accepted offers disagree: %+v", d)
	}
}

// TestRunTilesNested pins the no-deadlock guarantee: jobs that fan out
// again from inside Tile (the lanes of a pass smaller than the pool,
// each running a tiled GEMM) complete with every inner index executed exactly once, even
// when the pool is saturated by the outer level.
func TestRunTilesNested(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4)
	inner := make([]*countJob, 8)
	for i := range inner {
		inner[i] = &countJob{hits: make([]atomic.Int32, 100)}
	}
	outer := &nestJob{inner: inner}
	RunTiles(len(inner), outer)
	for i, c := range inner {
		checkAllOnce(t, fmt.Sprintf("inner=%d", i), c.hits)
	}
}

type nestJob struct {
	TileJob
	inner []*countJob
}

func (nj *nestJob) Tile(i int) {
	c := nj.inner[i]
	RunTiles(len(c.hits), c)
}
func (nj *nestJob) Job() *TileJob { return &nj.TileJob }
func (nj *nestJob) Recycle()      {}

// TestWorkersSemantics pins the tuning contract: 0 follows GOMAXPROCS,
// positive values pin, and everything caps at maxGemmWorkers.
func TestWorkersSemantics(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(3)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", got)
	}
	SetWorkers(100)
	if got := Workers(); got != maxGemmWorkers {
		t.Fatalf("Workers() = %d after SetWorkers(100), want cap %d", got, maxGemmWorkers)
	}
	SetWorkers(0)
	want := runtime.GOMAXPROCS(0)
	if want > maxGemmWorkers {
		want = maxGemmWorkers
	}
	if got := Workers(); got != want {
		t.Fatalf("Workers() = %d with automatic default, want %d", got, want)
	}
}

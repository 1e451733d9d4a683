package quant

import "sync"

// This file is the macro-tile layer between the GEMM entry points and
// the worker pool in parallel.go: the register-blocked kernel
// (gemmBlock, over dense rows or packed sparse blocks) becomes the
// inner kernel of a cache-blocked loop over tileM×tileN output
// macro-tiles, and those tiles are the unit of work split across
// RunTiles. The partition is strictly over output
// coordinates (M rows × N columns × batch slabs) — K is NEVER split, so
// each output element's full dot product runs on exactly one worker in
// the same modular-int32 order as the serial kernel, which is what
// keeps every parallel width bit-exact against the naive oracle.
// Workers write disjoint dst regions and only read the shared weight
// and activation operands, so no synchronization beyond job completion
// is needed, and the job structs recycle through sync.Pools so the
// steady state allocates nothing.

// tileM×tileN is the macro-tile: the output block one worker computes
// per claim. At int8 operands a 32-row × 64-column tile touches
// 32 rows of A plus 64 overlapping windows of the frame — comfortably
// L1/L2-resident for this repo's layer shapes (k up to a few thousand)
// — while the benchmark conv (64×1024 output) still splits into 32
// tiles, enough granularity for the atomic cursor to balance ragged
// finishes. tileM doubles as the row-band height of the FC split, and is
// a multiple of SparseBlockRows, so tile boundaries never split a skip
// block.
const (
	tileM = 32
	tileN = 64
)

// weights is a GEMM's left operand in the form its kernel was compiled
// for: the dense row-major code matrix, or (sparse set) the block-sparse
// packed image. It picks the block kernel's panel packer (gemmBlock,
// gemm.go); the inner step is the same for both.
type weights struct {
	dense  []int8
	sparse *SparseWeights
}

// gemmJob is the pooled work descriptor of one (possibly multi-slab)
// tiled conv GEMM: tile index t decomposes as (slab, row-tile,
// col-tile) and maps to one block-kernel call on that sub-rectangle.
type gemmJob struct {
	TileJob
	dst     []int32
	w       weights
	x       rhs
	bias    []int32
	m, k, n int
	slabs   int
	mt, nt  int // row/column tile counts per slab
}

var gemmJobs = sync.Pool{New: func() any { return new(gemmJob) }}

func (g *gemmJob) Job() *TileJob { return &g.TileJob }

func (g *gemmJob) Recycle() {
	g.dst, g.w, g.x, g.bias = nil, weights{}, rhs{}, nil
	gemmJobs.Put(g)
}

func (g *gemmJob) Tile(t int) {
	per := g.mt * g.nt
	b := t / per
	t -= b * per
	ti := t / g.nt
	tj := t - ti*g.nt
	i0 := ti * tileM
	i1 := min(i0+tileM, g.m)
	j0 := tj * tileN
	j1 := min(j0+tileN, g.n)
	g.w.gemmBlock(g.dst[b*g.m*g.n:(b+1)*g.m*g.n], g.n, 1, g.x.slab(b, g.slabs), i0, i1, j0, j1, g.k, g.bias)
}

// slab returns the operand of image b of n: its frame, same geometry.
func (x rhs) slab(b, n int) rhs {
	size := len(x.frame) / n
	x.frame = x.frame[b*size : (b+1)*size]
	return x
}

// gemmInt8Tiled computes slabs independent products dst[b] =
// w[m×k]·x[b]ᵀ — x.frame holds the slabs' equal-sized frames back to
// back, n columns of k taps each, per-slab output blocks dst[b*m*n:] in
// row-major m×n layout — splitting the slab × macro-tile grid across the
// worker pool when fan is set. Without it (the caller is already one of
// a pass's parallel lanes), with one effective worker, or on a problem
// too small to tile, the slabs run in order through the block kernel,
// keeping the small weight matrix cache-resident across the whole
// stacked walk while each frame streams exactly once.
func gemmInt8Tiled(dst []int32, w weights, x rhs, m, k, slabs, n int, bias []int32, fan bool) {
	mt := (m + tileM - 1) / tileM
	nt := (n + tileN - 1) / tileN
	tiles := slabs * mt * nt
	if !fan || tiles <= 1 || Workers() <= 1 {
		for b := 0; b < slabs; b++ {
			w.gemmBlock(dst[b*m*n:(b+1)*m*n], n, 1, x.slab(b, slabs), 0, m, 0, n, k, bias)
		}
		return
	}
	g := gemmJobs.Get().(*gemmJob)
	g.dst, g.w, g.x, g.bias = dst, w, x, bias
	g.m, g.k, g.n, g.slabs = m, k, n, slabs
	g.mt, g.nt = mt, nt
	RunTiles(tiles, g)
}

// denseJob is the pooled work descriptor of a row-banded batched FC
// product: tile t covers output rows [t*tileM, (t+1)*tileM).
type denseJob struct {
	TileJob
	dst     []int32
	w       weights
	bias    []int32
	xs      []*QTensor
	in, out int
}

var denseJobs = sync.Pool{New: func() any { return new(denseJob) }}

func (d *denseJob) Job() *TileJob { return &d.TileJob }

func (d *denseJob) Recycle() {
	d.dst, d.w, d.bias, d.xs = nil, weights{}, nil, nil
	denseJobs.Put(d)
}

func (d *denseJob) Tile(t int) {
	o0 := t * tileM
	d.w.gemmBlock(d.dst, 1, d.out, rhs{xs: d.xs, kw: d.in}, o0, min(o0+tileM, d.out), 0, len(d.xs), d.in, d.bias)
}

// denseInt8Tiled computes the batched FC product, splitting tileM-row
// output bands across the worker pool when fan is set. Row bands
// partition only the output dimension — every band streams the full
// inputs — so each output element is computed by one worker in serial
// accumulation order: bit-exact at every width.
func denseInt8Tiled(dst []int32, w weights, bias []int32, xs []*QTensor, in, out int, fan bool) {
	tiles := (out + tileM - 1) / tileM
	if !fan || tiles <= 1 || Workers() <= 1 {
		w.gemmBlock(dst, 1, out, rhs{xs: xs, kw: in}, 0, out, 0, len(xs), in, bias)
		return
	}
	d := denseJobs.Get().(*denseJob)
	d.dst, d.w, d.bias, d.xs = dst, w, bias, xs
	d.in, d.out = in, out
	RunTiles(tiles, d)
}

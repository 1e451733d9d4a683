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
// Workers write disjoint dst regions and only read the shared a/bt
// operands, so no synchronization beyond job completion is needed, and
// the job structs recycle through sync.Pools so the steady state
// allocates nothing.

// tileM×tileN is the macro-tile: the output block one worker computes
// per claim. At int8 operands a 32-row × 64-column tile touches
// 32 rows of A plus 64 patch columns — comfortably L1/L2-resident for
// this repo's layer shapes (k up to a few thousand) — while the
// benchmark conv (64×1024 output) still splits into 32 tiles, enough
// granularity for the atomic cursor to balance ragged finishes. tileM
// doubles as the row-band height of the FC split, and is a multiple of
// SparseBlockRows, so tile boundaries never split a skip block.
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
	dst      []int32
	w        weights
	bt       []int8
	bias     []int32
	m, k, n  int
	mt, nt   int // row/column tile counts per slab
	blockLen int // m*n: one slab's output block
	slabLen  int // n*k: one slab's patch matrix
}

var gemmJobs = sync.Pool{New: func() any { return new(gemmJob) }}

func (g *gemmJob) Job() *TileJob { return &g.TileJob }

func (g *gemmJob) Recycle() {
	g.dst, g.w, g.bt, g.bias = nil, weights{}, nil, nil
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
	dst := g.dst[b*g.blockLen : (b+1)*g.blockLen]
	bt := g.bt[b*g.slabLen : (b+1)*g.slabLen]
	g.w.gemmBlock(dst, g.n, 1, rhs{bt: bt}, i0, i1, j0, j1, g.k, g.bias)
}

// gemmInt8Tiled computes slabs independent products dst[b] =
// w[m×k]·bt[b][n×k]ᵀ — n patch-major RHS columns per slab (bt[b*n*k:]
// is slab b), per-slab output blocks dst[b*m*n:] in row-major m×n
// layout — splitting the slab × macro-tile grid across the worker pool.
// With one effective worker, or a problem too small to tile, the slabs
// run in order through the block kernel, keeping the small weight
// matrix cache-resident across the whole stacked walk while each patch
// slab streams exactly once.
func gemmInt8Tiled(dst []int32, w weights, bt []int8, m, k, slabs, n int, bias []int32) {
	mt := (m + tileM - 1) / tileM
	nt := (n + tileN - 1) / tileN
	tiles := slabs * mt * nt
	if tiles <= 1 || Workers() <= 1 {
		block, slab := m*n, n*k
		for b := 0; b < slabs; b++ {
			w.gemmBlock(dst[b*block:(b+1)*block], n, 1, rhs{bt: bt[b*slab : (b+1)*slab]}, 0, m, 0, n, k, bias)
		}
		return
	}
	g := gemmJobs.Get().(*gemmJob)
	g.dst, g.w, g.bt, g.bias = dst, w, bt, bias
	g.m, g.k, g.n = m, k, n
	g.mt, g.nt = mt, nt
	g.blockLen, g.slabLen = m*n, n*k
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
	d.w.gemmBlock(d.dst, 1, d.out, rhs{xs: d.xs}, o0, min(o0+tileM, d.out), 0, len(d.xs), d.in, d.bias)
}

// denseInt8Tiled computes the batched FC product, splitting tileM-row
// output bands across the worker pool. Row bands partition only the
// output dimension — every band streams the full inputs — so each
// output element is computed by one worker in serial accumulation
// order: bit-exact at every width.
func denseInt8Tiled(dst []int32, w weights, bias []int32, xs []*QTensor, in, out int) {
	tiles := (out + tileM - 1) / tileM
	if tiles <= 1 || Workers() <= 1 {
		w.gemmBlock(dst, 1, out, rhs{xs: xs}, 0, out, 0, len(xs), in, bias)
		return
	}
	d := denseJobs.Get().(*denseJob)
	d.dst, d.w, d.bias, d.xs = dst, w, bias, xs
	d.in, d.out = in, out
	RunTiles(tiles, d)
}

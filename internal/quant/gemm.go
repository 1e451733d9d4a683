package quant

import (
	"fmt"
	"math"
)

// This file is the inner kernel of the int8 compute path — the
// register-blocked int8→int32 GEMM that the batch lowerings in
// gemm_batch.go tile and parallelize — and the requantize(+ReLU)
// epilogue that writes straight into a caller-owned tensor. The kernel
// mirrors the DPU's DSP48E2 trick of packing two int8 multiplies that
// share an operand into one wide multiplier: two weight rows ride the
// 32-bit lanes of an int64, so one 64-bit multiply is two MACs. Both
// take caller-owned buffers (the kernel's only scratch is on its stack)
// so a steady-state inference performs no heap allocation; the naive
// kernels in kernels.go remain as the reference oracle and every
// lowering is bit-exact against them: each lane sum is an exact integer,
// and adding exact span sums to the bias modulo 2³² equals the naive
// kernel's running int32 in any association.

// growInt8 returns buf resized to n, reusing its backing array when the
// capacity allows.
func growInt8(buf []int8, n int) []int8 {
	if cap(buf) < n {
		return make([]int8, n)
	}
	return buf[:n]
}

// growInt32 is growInt8 for int32 buffers.
func growInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// gemmRows × gemmCols is the register tile: four weight rows, packed two
// to a 64-bit lane pair, against two activation columns — four int64
// accumulators carrying eight int32 sums. Wider tiles spill under the Go
// register allocator and run slower (DESIGN.md, "The two-lane step").
const (
	gemmRows = 4
	gemmCols = 2
)

// panelTaps is the length of the block kernel's on-stack weight panel: a
// row group's reduction is walked in spans of at most panelTaps taps,
// each span packed once and run against every column pair of the tile,
// its lane sums split at the end of the span. An int8×int8 product is at
// most 2¹⁴ in magnitude, so a lane's span sum stays exact in int32 for
// any span under 2¹⁷ taps; spans add modulo 2³², exactly like the naive
// kernel's running int32, so no reduction length needs a second kernel.
// A multiple of 64: sparse spans cover whole bitmap words.
const panelTaps = 512

// laneTap is one K-step of a packed row group: the weights of rows 0|1
// in the low|high 32-bit lanes of w01, rows 2|3 in w23, and the
// reduction index p the step's activations are read at. One 64-bit
// multiply by a sign-extended activation v then performs two MACs:
// (w0 + w1·2³²)·v = w0·v + (w1·v)·2³².
type laneTap struct {
	w01, w23 int64
	p        int
}

// packLanes places two weights in the lanes of one multiplier operand.
func packLanes(lo, hi int8) int64 { return int64(lo) + int64(hi)<<32 }

// splitLanes recovers the two lane sums of s = L + H·2³². With |L| < 2³¹
// (guaranteed by panelTaps) the low word of s is L exactly, and removing
// it leaves H·2³²: the only cross-lane term is L's borrow, which the
// subtraction cancels.
func splitLanes(s int64) (lo, hi int32) {
	lo = int32(s)
	return lo, int32((s - int64(lo)) >> 32)
}

// laneStep is the inner loop: one packed span of a row group against two
// activation columns, 8 MACs per 4 multiplies, no stores. sRC sums lane
// pair R (rows 2R|2R+1) against column C. A sparse span simply has fewer
// taps: the same products as the dense one minus exact zeros, so the
// sums are identical. Kept out of line: inlined into the block kernel
// its accumulators spill.
//
//go:noinline
func laneStep(taps []laneTap, x0, x1 []int8) (s00, s01, s10, s11 int64) {
	x1 = x1[:len(x0)]
	for _, t := range taps {
		v0, v1 := int64(x0[t.p]), int64(x1[t.p])
		s00 += t.w01 * v0
		s01 += t.w01 * v1
		s10 += t.w23 * v0
		s11 += t.w23 * v1
	}
	return
}

// packRows packs taps [q, q+len(taps)) of rows [i, i+rows) of the
// row-major m×k matrix a; off[p] is where tap q+p's activation sits in a
// column's window. A ragged group repeats its last row in the unused
// lanes: lanes never interact, and the block kernel does not store them.
func packRows(taps []laneTap, off []int32, a []int8, i, rows, k, q int) {
	row := func(r int) []int8 {
		r = i + min(r, rows-1)
		return a[r*k+q : r*k+q+len(taps)]
	}
	a0, a1, a2, a3 := row(0), row(1), row(2), row(3)
	off = off[:len(taps)]
	for p := range taps {
		taps[p] = laneTap{packLanes(a0[p], a1[p]), packLanes(a2[p], a3[p]), int(off[p])}
	}
}

// loadRows reads one tile column: the first rows of it, rs apart.
func loadRows(d []int32, rs, rows int) (t [gemmRows]int32) {
	for r := 0; r < rows; r++ {
		t[r] = d[r*rs]
	}
	return t
}

// storeRows writes one tile column.
func storeRows(d []int32, rs, rows int, t [gemmRows]int32) {
	for r := 0; r < rows; r++ {
		d[r*rs] = t[r]
	}
}

// rhs is a GEMM's right operand, n columns of k codes, read where the
// activations already are. Conv: column j is output pixel (oy, ox)'s
// receptive field inside frame, the image's zero-padded InC×Hp×Wp
// tensor — the window starting at (oy·Wp+ox)·stride, in which tap
// (ic, ky, kx) sits at ic·plane + ky·wp + kx. FC: column b is image b's
// activations and tap p sits at p, which is the same rule with a kernel
// row as wide as the reduction. A patch-major n×k matrix is the conv rule
// again: one channel, kernel width k, stride k. The rhs is also the
// cursor of the block kernel's column walk (seek, next), so a column
// costs additions, not a division.
type rhs struct {
	xs    []*QTensor
	frame []int8
	// kw is the kernel width, wp and plane the frame's row and channel
	// strides, span the window length: the last tap's offset plus one.
	kw, wp, plane, stride, outW, span int

	j, ox, row int // the next column, its pixel column and its row's window start
}

// seek places the cursor on column j.
func (x *rhs) seek(j int) {
	x.j = j
	if x.xs == nil {
		oy := j / x.outW
		x.ox, x.row = j-oy*x.outW, oy*x.wp*x.stride
	}
}

// next returns the cursor's column — its tensor, or its window of the
// frame — and steps to the following one.
func (x *rhs) next() []int8 {
	if x.xs != nil {
		x.j++
		return x.xs[x.j-1].Data
	}
	base := x.row + x.ox*x.stride
	if x.ox++; x.ox == x.outW {
		x.ox, x.row = 0, x.row+x.wp*x.stride
	}
	return x.frame[base : base+x.span]
}

// offsets fills off with the window offsets of reduction taps
// [q, q+len(off)): tap (ic, ky, kx) at ic·plane + ky·wp + kx, stepped
// incrementally, so a span may start and end mid-row or mid-channel.
func (x *rhs) offsets(off []int32, q int) {
	ic, r := q/(x.kw*x.kw), q%(x.kw*x.kw)
	ky, kx := r/x.kw, r%x.kw
	o := ic*x.plane + ky*x.wp + kx
	for p := range off {
		off[p] = int32(o)
		o++
		if kx++; kx == x.kw {
			kx, o = 0, o+x.wp-x.kw
			if ky++; ky == x.kw {
				ky, o = 0, o+x.plane-x.kw*x.wp
			}
		}
	}
}

// gemmBlock is the block kernel: it computes output rows [i0,i1) ×
// columns [j0,j1) of w[m×k]·xᵀ with int8 operands, int32 accumulation
// and bias[i] seeding row i — the MAC-array contract of the DPU's
// conv/FC units. Element (i,j) lands at dst[i*rs+j*cs], so one kernel
// serves the conv layout (rs = n, cs = 1) and the image-major FC layout
// (rs = 1, cs = out). i0 must be a multiple of gemmRows (macro-tile
// rows are). Per row group the reduction is walked in spans of
// panelTaps taps: the span's weights are packed once into the on-stack
// panel (dense rows, or the nonzero blocks of the sparse image — the
// weight operand picks only the packer), every column pair runs the
// two-lane step over it, and the split lane sums are added to the bias
// (first span) or to the running sums in dst (later ones). Every addend
// is the exact product sum of its span, and int32 addition is
// associative modulo 2³², so each element is bit-identical to the naive
// kernel's bias-then-taps running sum; and since an element's whole
// reduction is self-contained, any macro-tile partition of the output
// plane yields the same int32s as one full-matrix call.
//
// The panel is rebuilt from the live weight bytes for every span of
// every call and dies with the call's frame: the BRAM image stays the
// only copy of the weights, so transient flips, SECDED corrections,
// scrubbing and restore need no invalidation hook, and the kernel has
// no pooled or shared scratch to keep warm. The span's tap offsets sit
// beside it on the stack, refilled only when the span changes — once per
// call when the reduction fits one panel.
//
// An odd last column rides the step twice, and a lone image (FC at
// batch 1) packs 4×k weights for that single column, so nothing
// amortises the pack — nor, past one panel, the offset refill per span
// per row group: root BenchmarkGemmScaling/fc-batch1 reads 1.02 GMAC/s
// (1.22 before the offset table) against 1.34 for the scalar 4×1 loop
// this kernel replaced. That is cheap while FC is ≤ 1.4 % of the
// deployed models' MACs; an FC-heavy kernel served at batch 1 would
// want a one-column step.
func (w weights) gemmBlock(dst []int32, rs, cs int, x rhs, i0, i1, j0, j1, k int, bias []int32) {
	var panel [panelTaps]laneTap
	var off [panelTaps]int32
	offQ := -1 // the span off currently describes
	for i := i0; i < i1; i += gemmRows {
		rows := min(gemmRows, i1-i)
		var b [gemmRows]int32
		copy(b[:], bias[i:i+rows])
		blk := 0 // sparse: the group's blocks packed so far
		for q := 0; q < k; q += panelTaps {
			taps := panel[:min(panelTaps, k-q)]
			at := off[:len(taps)]
			if q != offQ {
				x.offsets(at, q)
				offQ = q
			}
			if w.sparse != nil {
				taps = taps[:packBlocks(taps, at, w.sparse, i/SparseBlockRows, q, blk)]
				blk += len(taps)
				if len(taps) == 0 && q > 0 {
					continue
				}
			} else {
				packRows(taps, at, w.dense, i, rows, k, q)
			}
			x.seek(j0)
			for j := j0; j < j1; j += gemmCols {
				x0 := x.next()
				d0 := dst[i*rs+j*cs:]
				x1, d1 := x0, d0 // an odd last column is its own twin: same sums, same place
				if j+1 < j1 {
					x1, d1 = x.next(), dst[i*rs+(j+1)*cs:]
				}
				t0, t1 := b, b
				if q > 0 {
					t0, t1 = loadRows(d0, rs, rows), loadRows(d1, rs, rows)
				}
				s00, s01, s10, s11 := laneStep(taps, x0, x1)
				lo, hi := splitLanes(s00)
				t0[0], t0[1] = t0[0]+lo, t0[1]+hi
				lo, hi = splitLanes(s10)
				t0[2], t0[3] = t0[2]+lo, t0[3]+hi
				lo, hi = splitLanes(s01)
				t1[0], t1[1] = t1[0]+lo, t1[1]+hi
				lo, hi = splitLanes(s11)
				t1[2], t1[3] = t1[2]+lo, t1[3]+hi
				storeRows(d1, rs, rows, t1)
				storeRows(d0, rs, rows, t0)
			}
		}
	}
}

// roundMagic is 1.5·2⁵²: adding it to a float64 x with |x| < 2⁵¹ lands in
// [2⁵², 2⁵³), where floats are the integers, so the sum is x rounded half
// to even and its low mantissa bits hold that integer, offset by the
// magic's own.
const roundMagic = 3 << 51

// maxRequantRatio bounds accScale/outScale so that an int32 accumulator
// times the ratio stays inside roundMagic's exact range. DECENT's scales
// give ratios below one.
const maxRequantRatio = 1 << 20

// RequantizeInto is the fused GEMM epilogue: it maps int32 accumulators to
// int8 codes in dst (reusing dst's backing storage) and optionally applies
// ReLU in the same pass (a clamp of negative codes to zero, so bit-exact
// with requantizing and then applying ReLUQInto). One branch-free loop:
// the product is rounded to even by the magic-constant add, as an exact
// integer, and clamped between integers — [0, qmax] under ReLU, else
// [−qmax, qmax] — so codes past the range saturate whatever the ratio.
// The inner float64 conversion keeps the multiply and the add from fusing
// into an FMA, which would skip the product's own rounding.
func RequantizeInto(dst *QTensor, acc []int32, accScale, outScale float32, bits int, relu bool, dims ...int) error {
	if err := validBits(bits); err != nil {
		return err
	}
	if outScale <= 0 {
		return fmt.Errorf("quant: output scale must be positive, got %g", outScale)
	}
	ratio := float64(accScale) / float64(outScale)
	if !(math.Abs(ratio) < maxRequantRatio) {
		return fmt.Errorf("quant: requantize ratio %g/%g is not below 2^20", accScale, outScale)
	}
	dst.Data = growInt8(dst.Data, len(acc))
	dst.Dims = append(dst.Dims[:0], dims...)
	dst.Scale = outScale
	dst.Bits = bits
	hi := int64(QMax(bits))
	lo := -hi
	if relu {
		lo = 0
	}
	d := dst.Data
	for i, a := range acc {
		f := float64(float64(a)*ratio) + roundMagic
		v := int64(math.Float64bits(f)) - int64(math.Float64bits(roundMagic))
		d[i] = int8(max(lo, min(hi, v)))
	}
	return nil
}

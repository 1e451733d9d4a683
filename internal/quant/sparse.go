package quant

import (
	"fmt"
	"math/bits"
)

// This file is the block-sparse weight format and its panel packer —
// the executor-side payoff of the prune→quantize→deploy pipeline. The
// format is aligned to the tiling hierarchy in gemm_tiled.go: the skip
// unit is the SparseBlockRows×1 column slice of the weight matrix that
// feeds one K-step of the register tile (one laneTap, gemm.go), so a
// fully-zero block is skipped without touching the activations and a
// nonzero block runs the exact 8-MAC step of the dense inner kernel.
// Because a skipped block contributes only exact zeros to the
// accumulators and the surviving blocks are the same products as the
// dense step's, every output element is bit-identical to the dense and
// naive kernels on the same weights — at every worker count, since the
// macro-tile partition above the block kernel (gemm_tiled.go, shared
// with the dense walk) splits only output coordinates (K is never
// split).
//
// The compacted block payload lives in an ordinary QTensor: it is the
// BRAM-resident weight image of a sparse deployment, so the executor's
// transient-flip, SECDED and scrub machinery operate on it unchanged —
// and since it is smaller than the dense image, a pruned kernel has
// fewer protected words to corrupt and scrub (see internal/ecc and the
// governor's corrected-rate budget).

// SparseBlockRows is the skip-block height: the gemmRows register rows
// that one packed block feeds. Macro-tile row boundaries (tileM) are a
// multiple of it, so tile partitions never split a block.
const SparseBlockRows = gemmRows

// SparseWeights is a weight matrix in block-sparse packed form: the M
// rows are grouped into ceil(M/SparseBlockRows) row groups, each group
// carrying a K-bit nonzero bitmap (bit p set iff any of the group's
// rows is nonzero at reduction index p) and a compacted run of
// SparseBlockRows-byte blocks, one per set bit, in ascending p order.
type SparseWeights struct {
	// Packed holds the compacted nonzero blocks — SparseBlockRows int8
	// codes per set bitmap bit, rows-in-group order, zero-padded when
	// the last group is ragged. This is the BRAM-resident image: fault
	// injection and ECC scrubbing address it exactly like a dense
	// weight tensor's Data.
	Packed *QTensor
	// Bitmap is group-major: group r's K-bit map occupies words
	// [r*BitmapStride, (r+1)*BitmapStride), bit p at word p/64 bit p%64.
	Bitmap []uint64
	// Start[r] is the block offset of group r's first packed block;
	// Start[Groups()] is the total block count.
	Start []int32
	// Dims is the logical dense weight shape (OIHW conv, 2-D dense).
	Dims []int
	// M×K is the logical GEMM operand: M output rows, K reduction depth.
	M, K int
	// BitmapStride is ceil(K/64), the bitmap words per group.
	BitmapStride int
}

// Groups returns the row-group count.
func (s *SparseWeights) Groups() int {
	return (s.M + SparseBlockRows - 1) / SparseBlockRows
}

// Blocks returns the stored (nonzero) block count.
func (s *SparseWeights) Blocks() int {
	if len(s.Start) == 0 {
		return 0
	}
	return int(s.Start[len(s.Start)-1])
}

// BlockSparsity returns the fraction of skip blocks that are fully zero
// — the fraction of inner-kernel K-steps the sparse kernel elides.
func (s *SparseWeights) BlockSparsity() float64 {
	total := s.Groups() * s.K
	if total == 0 {
		return 0
	}
	return 1 - float64(s.Blocks())/float64(total)
}

// header returns a dense-shaped QTensor view for geometry validation
// (ConvShapeOf reads only Dims); it carries no weight data.
func (s *SparseWeights) header() QTensor {
	return QTensor{Dims: s.Dims, Scale: s.Packed.Scale, Bits: s.Packed.Bits}
}

// PackSparse converts a quantized weight tensor to block-sparse packed
// form. The dense tensor is not retained: the packed image plus the
// bitmap reconstruct it exactly (see UnpackInto).
func PackSparse(w *QTensor) (*SparseWeights, error) {
	if len(w.Dims) != 2 && len(w.Dims) != 4 {
		return nil, fmt.Errorf("quant: sparse weights must be 2-D (FC) or OIHW (conv), got %v", w.Dims)
	}
	m := w.Dims[0]
	k := 1
	for _, d := range w.Dims[1:] {
		k *= d
	}
	if m <= 0 || k <= 0 || m*k != len(w.Data) {
		return nil, fmt.Errorf("quant: sparse weight dims %v do not cover %d codes", w.Dims, len(w.Data))
	}
	groups := (m + SparseBlockRows - 1) / SparseBlockRows
	stride := (k + 63) / 64
	s := &SparseWeights{
		Bitmap:       make([]uint64, groups*stride),
		Start:        make([]int32, groups+1),
		Dims:         append([]int(nil), w.Dims...),
		M:            m,
		K:            k,
		BitmapStride: stride,
	}
	// First pass: mark nonzero blocks and count them.
	nBlocks := 0
	for r := 0; r < groups; r++ {
		i0 := r * SparseBlockRows
		rows := min(SparseBlockRows, m-i0)
		bm := s.Bitmap[r*stride : (r+1)*stride]
		for p := 0; p < k; p++ {
			nz := false
			for q := 0; q < rows; q++ {
				if w.Data[(i0+q)*k+p] != 0 {
					nz = true
					break
				}
			}
			if nz {
				bm[p>>6] |= 1 << uint(p&63)
				nBlocks++
			}
		}
		s.Start[r+1] = int32(nBlocks)
	}
	// Second pass: compact the surviving blocks in (group, p) order.
	packed := make([]int8, nBlocks*SparseBlockRows)
	pos := 0
	for r := 0; r < groups; r++ {
		i0 := r * SparseBlockRows
		rows := min(SparseBlockRows, m-i0)
		bm := s.Bitmap[r*stride : (r+1)*stride]
		for wi, word := range bm {
			pBase := wi << 6
			for word != 0 {
				p := pBase + bits.TrailingZeros64(word)
				word &= word - 1
				for q := 0; q < rows; q++ {
					packed[pos+q] = w.Data[(i0+q)*k+p]
				}
				pos += SparseBlockRows
			}
		}
	}
	s.Packed = &QTensor{
		Data:  packed,
		Dims:  []int{nBlocks, SparseBlockRows},
		Scale: w.Scale,
		Bits:  w.Bits,
	}
	return s, nil
}

// UnpackInto reconstructs the dense weight tensor from the packed image
// — including any bit corruption currently present in Packed.Data, which
// is what makes it the oracle bridge for fault-injection equivalence
// tests: flip the packed image, unpack, and the naive kernel on the
// unpacked tensor must match the sparse kernel on the packed one.
func (s *SparseWeights) UnpackInto(dst *QTensor) {
	dst.Data = growInt8(dst.Data, s.M*s.K)
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	dst.Dims = append(dst.Dims[:0], s.Dims...)
	dst.Scale = s.Packed.Scale
	dst.Bits = s.Packed.Bits
	pd := s.Packed.Data
	for r := 0; r < s.Groups(); r++ {
		i0 := r * SparseBlockRows
		rows := min(SparseBlockRows, s.M-i0)
		bm := s.Bitmap[r*s.BitmapStride : (r+1)*s.BitmapStride]
		blk := int(s.Start[r]) * SparseBlockRows
		for wi, word := range bm {
			pBase := wi << 6
			for word != 0 {
				p := pBase + bits.TrailingZeros64(word)
				word &= word - 1
				for q := 0; q < rows; q++ {
					dst.Data[(i0+q)*s.K+p] = pd[blk+q]
				}
				blk += SparseBlockRows
			}
		}
	}
}

// packBlocks expands the blocks of row group r whose reduction index
// falls in [q, q+len(taps)) — whole bitmap words, q being a multiple of
// 64 — into a lane panel: one tap per nonzero block, in ascending p,
// carrying the index its activations are read at, so each bitmap word is
// walked once per row group, not once per column pair. off[p] is where
// tap q+p's activation sits in a column's window; blk is how many of the
// group's blocks precede q; the tap count is returned. A ragged last
// group's padding rows are zeros in the image; the block kernel does not
// store their lanes.
func packBlocks(taps []laneTap, off []int32, sw *SparseWeights, r, q, blk int) int {
	pd := sw.Packed.Data[(int(sw.Start[r])+blk)*SparseBlockRows : int(sw.Start[r+1])*SparseBlockRows]
	bm := sw.Bitmap[r*sw.BitmapStride : (r+1)*sw.BitmapStride]
	bm = bm[q>>6 : (q+len(taps)+63)>>6]
	n := 0
	for wi, word := range bm {
		for ; word != 0; word &= word - 1 {
			b := pd[n*SparseBlockRows : (n+1)*SparseBlockRows]
			taps[n] = laneTap{
				w01: packLanes(b[0], b[1]),
				w23: packLanes(b[2], b[3]),
				p:   int(off[wi<<6+bits.TrailingZeros64(word)]),
			}
			n++
		}
	}
	return n
}

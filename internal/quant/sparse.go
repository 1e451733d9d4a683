package quant

import (
	"fmt"
	"math/bits"
)

// This file is the block-sparse weight format and its register-tile
// kernel — the executor-side payoff of the prune→quantize→deploy
// pipeline. The format is aligned to the tiling hierarchy in
// gemm_tiled.go: the skip unit is the SparseBlockRows×1 column slice of
// the weight matrix that feeds one K-step of the 4×2 register tile, so
// a fully-zero block is skipped without touching the patch matrix and a
// nonzero block runs the exact 8-MAC step of the dense inner kernel.
// Because a skipped block contributes only exact zeros to the int32
// accumulators and the surviving blocks accumulate in the same
// ascending-K order as gemmInt8Block, every output element is
// bit-identical to the dense and naive kernels on the same weights —
// at every worker count, since the macro-tile partition above this
// kernel (gemm_tiled.go, shared with the dense kernel) splits only
// output coordinates (K is never split).
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

// sparseGemmBlock computes dst rows [i0,i1) × columns [j0,j1) of the
// M×n product against the patch-major RHS bt (n rows of K), with ld the
// dst row stride — the sparse form of gemmInt8Block. i0 must be a
// multiple of SparseBlockRows (macro-tile rows are). Per row group it
// walks the nonzero bitmap with TrailingZeros64 and runs the dense
// kernel's 8-MAC step once per surviving block: identical accumulation
// order over identical nonzero terms, so the result is bit-exact with
// the dense kernel on the unpacked weights.
func sparseGemmBlock(dst []int32, sw *SparseWeights, bt []int8, i0, i1, j0, j1, ld int, bias []int32) {
	k := sw.K
	pd := sw.Packed.Data
	for i := i0; i < i1; i += SparseBlockRows {
		r := i / SparseBlockRows
		rows := min(SparseBlockRows, i1-i)
		bm := sw.Bitmap[r*sw.BitmapStride : (r+1)*sw.BitmapStride]
		base := int(sw.Start[r]) * SparseBlockRows
		var bi0, bi1, bi2, bi3 int32
		bi0 = bias[i]
		if rows > 1 {
			bi1 = bias[i+1]
		}
		if rows > 2 {
			bi2 = bias[i+2]
		}
		if rows > 3 {
			bi3 = bias[i+3]
		}
		j := j0
		for ; j+gemmCols <= j1; j += gemmCols {
			x0 := bt[(j+0)*k : (j+1)*k]
			x1 := bt[(j+1)*k : (j+2)*k]
			s00, s01 := bi0, bi0
			s10, s11 := bi1, bi1
			s20, s21 := bi2, bi2
			s30, s31 := bi3, bi3
			blk := base
			for wi, word := range bm {
				pBase := wi << 6
				for word != 0 {
					p := pBase + bits.TrailingZeros64(word)
					word &= word - 1
					v0 := int32(x0[p])
					v1 := int32(x1[p])
					w0 := int32(pd[blk])
					w1 := int32(pd[blk+1])
					w2 := int32(pd[blk+2])
					w3 := int32(pd[blk+3])
					blk += SparseBlockRows
					s00 += w0 * v0
					s01 += w0 * v1
					s10 += w1 * v0
					s11 += w1 * v1
					s20 += w2 * v0
					s21 += w2 * v1
					s30 += w3 * v0
					s31 += w3 * v1
				}
			}
			dst[(i+0)*ld+j], dst[(i+0)*ld+j+1] = s00, s01
			if rows > 1 {
				dst[(i+1)*ld+j], dst[(i+1)*ld+j+1] = s10, s11
			}
			if rows > 2 {
				dst[(i+2)*ld+j], dst[(i+2)*ld+j+1] = s20, s21
			}
			if rows > 3 {
				dst[(i+3)*ld+j], dst[(i+3)*ld+j+1] = s30, s31
			}
		}
		for ; j < j1; j++ {
			x0 := bt[j*k : (j+1)*k]
			s0, s1, s2, s3 := bi0, bi1, bi2, bi3
			blk := base
			for wi, word := range bm {
				pBase := wi << 6
				for word != 0 {
					p := pBase + bits.TrailingZeros64(word)
					word &= word - 1
					v := int32(x0[p])
					s0 += int32(pd[blk]) * v
					s1 += int32(pd[blk+1]) * v
					s2 += int32(pd[blk+2]) * v
					s3 += int32(pd[blk+3]) * v
					blk += SparseBlockRows
				}
			}
			dst[(i+0)*ld+j] = s0
			if rows > 1 {
				dst[(i+1)*ld+j] = s1
			}
			if rows > 2 {
				dst[(i+2)*ld+j] = s2
			}
			if rows > 3 {
				dst[(i+3)*ld+j] = s3
			}
		}
	}
}

// sparseDenseRows computes output rows [o0,o1) of the batched FC
// product for every image (image b's row o at dst[b*out+o]) — the
// sparse form of denseInt8Rows: row groups are the outer loop so each
// group's packed run streams the batch once, image pairs share each
// loaded block.
func sparseDenseRows(dst []int32, sw *SparseWeights, bias []int32, xs []*QTensor, out, o0, o1 int) {
	n := len(xs)
	pd := sw.Packed.Data
	for o := o0; o < o1; o += SparseBlockRows {
		r := o / SparseBlockRows
		rows := min(SparseBlockRows, o1-o)
		bm := sw.Bitmap[r*sw.BitmapStride : (r+1)*sw.BitmapStride]
		base := int(sw.Start[r]) * SparseBlockRows
		var bi0, bi1, bi2, bi3 int32
		bi0 = bias[o]
		if rows > 1 {
			bi1 = bias[o+1]
		}
		if rows > 2 {
			bi2 = bias[o+2]
		}
		if rows > 3 {
			bi3 = bias[o+3]
		}
		b := 0
		for ; b+gemmCols <= n; b += gemmCols {
			x0 := xs[b].Data
			x1 := xs[b+1].Data
			s00, s01 := bi0, bi0
			s10, s11 := bi1, bi1
			s20, s21 := bi2, bi2
			s30, s31 := bi3, bi3
			blk := base
			for wi, word := range bm {
				pBase := wi << 6
				for word != 0 {
					p := pBase + bits.TrailingZeros64(word)
					word &= word - 1
					v0 := int32(x0[p])
					v1 := int32(x1[p])
					w0 := int32(pd[blk])
					w1 := int32(pd[blk+1])
					w2 := int32(pd[blk+2])
					w3 := int32(pd[blk+3])
					blk += SparseBlockRows
					s00 += w0 * v0
					s01 += w0 * v1
					s10 += w1 * v0
					s11 += w1 * v1
					s20 += w2 * v0
					s21 += w2 * v1
					s30 += w3 * v0
					s31 += w3 * v1
				}
			}
			dst[(b+0)*out+o], dst[(b+1)*out+o] = s00, s01
			if rows > 1 {
				dst[(b+0)*out+o+1], dst[(b+1)*out+o+1] = s10, s11
			}
			if rows > 2 {
				dst[(b+0)*out+o+2], dst[(b+1)*out+o+2] = s20, s21
			}
			if rows > 3 {
				dst[(b+0)*out+o+3], dst[(b+1)*out+o+3] = s30, s31
			}
		}
		for ; b < n; b++ {
			xd := xs[b].Data
			s0, s1, s2, s3 := bi0, bi1, bi2, bi3
			blk := base
			for wi, word := range bm {
				pBase := wi << 6
				for word != 0 {
					p := pBase + bits.TrailingZeros64(word)
					word &= word - 1
					v := int32(xd[p])
					s0 += int32(pd[blk]) * v
					s1 += int32(pd[blk+1]) * v
					s2 += int32(pd[blk+2]) * v
					s3 += int32(pd[blk+3]) * v
					blk += SparseBlockRows
				}
			}
			dst[b*out+o] = s0
			if rows > 1 {
				dst[b*out+o+1] = s1
			}
			if rows > 2 {
				dst[b*out+o+2] = s2
			}
			if rows > 3 {
				dst[b*out+o+3] = s3
			}
		}
	}
}

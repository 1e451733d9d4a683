package quant

import (
	"fmt"
	"math"
)

// This file is the dense inner kernel of the int8 compute path — the
// register-blocked int8→int32 GEMM that the batch lowerings in
// gemm_batch.go tile and parallelize — and the requantize(+ReLU)
// epilogue that writes straight into a caller-owned tensor. Both take
// caller-owned buffers so a steady-state inference performs no heap
// allocation; the naive kernels in kernels.go remain as the reference
// oracle and every lowering is bit-exact against them (int32
// accumulation is modular, and the accumulation order — bias, then taps
// in (inC, ky, kx) order — is preserved).

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

// gemmRows × gemmCols is the register tile: each inner loop streams the
// shared reduction once while eight int32 accumulators stay in
// registers, so every loaded int8 feeds multiple multiply-accumulates
// and the steady-state loop performs no stores.
const (
	gemmRows = 4
	gemmCols = 2
)

// gemmInt8Block is the register-blocked kernel: it computes dst rows
// [i0,i1) × columns [j0,j1) of dst[m×n] = a[m×k]·bt[n×k]ᵀ with int8
// operands, int32 accumulation, and bias[i] seeding row i — the
// MAC-array contract of the DPU's conv/FC units. ld is the row stride of
// dst (ld == n for a full matrix). bt is patch-major (each of the n
// columns of the logical B matrix stored as a contiguous k-row), so
// every tile is a set of dot products over contiguous memory:
// branch-free, store-free, and bounds-check-free in the steady state.
// Each output element's accumulation — bias, then the full K reduction
// in p order — is self-contained, so any macro-tile partition of the
// output plane yields results bit-identical to one full-matrix call:
// tiling and parallelization never change a single int32.
func gemmInt8Block(dst []int32, a, bt []int8, i0, i1, j0, j1, k, ld int, bias []int32) {
	i := i0
	for ; i+gemmRows <= i1; i += gemmRows {
		a0 := a[(i+0)*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k]
		a2 := a[(i+2)*k : (i+3)*k]
		a3 := a[(i+3)*k : (i+4)*k]
		bi0, bi1, bi2, bi3 := bias[i], bias[i+1], bias[i+2], bias[i+3]
		j := j0
		for ; j+gemmCols <= j1; j += gemmCols {
			x0 := bt[(j+0)*k : (j+1)*k]
			x1 := bt[(j+1)*k : (j+2)*k]
			s00, s01 := bi0, bi0
			s10, s11 := bi1, bi1
			s20, s21 := bi2, bi2
			s30, s31 := bi3, bi3
			for p, xv := range x0 {
				v0 := int32(xv)
				v1 := int32(x1[p])
				w0 := int32(a0[p])
				w1 := int32(a1[p])
				w2 := int32(a2[p])
				w3 := int32(a3[p])
				s00 += w0 * v0
				s01 += w0 * v1
				s10 += w1 * v0
				s11 += w1 * v1
				s20 += w2 * v0
				s21 += w2 * v1
				s30 += w3 * v0
				s31 += w3 * v1
			}
			dst[(i+0)*ld+j], dst[(i+0)*ld+j+1] = s00, s01
			dst[(i+1)*ld+j], dst[(i+1)*ld+j+1] = s10, s11
			dst[(i+2)*ld+j], dst[(i+2)*ld+j+1] = s20, s21
			dst[(i+3)*ld+j], dst[(i+3)*ld+j+1] = s30, s31
		}
		for ; j < j1; j++ {
			x0 := bt[j*k : (j+1)*k]
			s0, s1, s2, s3 := bi0, bi1, bi2, bi3
			for p, xv := range x0 {
				v := int32(xv)
				s0 += int32(a0[p]) * v
				s1 += int32(a1[p]) * v
				s2 += int32(a2[p]) * v
				s3 += int32(a3[p]) * v
			}
			dst[(i+0)*ld+j] = s0
			dst[(i+1)*ld+j] = s1
			dst[(i+2)*ld+j] = s2
			dst[(i+3)*ld+j] = s3
		}
	}
	for ; i < i1; i++ {
		ar := a[i*k : (i+1)*k]
		bi := bias[i]
		for j := j0; j < j1; j++ {
			x0 := bt[j*k : (j+1)*k]
			sum := bi
			for p, xv := range x0 {
				sum += int32(ar[p]) * int32(xv)
			}
			dst[i*ld+j] = sum
		}
	}
}

// RequantizeInto is the fused GEMM epilogue: it maps int32 accumulators to
// int8 codes in dst (reusing dst's backing storage) and optionally applies
// ReLU in the same pass (a clamp of negative codes to zero, so bit-exact
// with requantizing and then applying ReLUQInto).
func RequantizeInto(dst *QTensor, acc []int32, accScale, outScale float32, bits int, relu bool, dims ...int) error {
	if err := validBits(bits); err != nil {
		return err
	}
	if outScale <= 0 {
		return fmt.Errorf("quant: output scale must be positive, got %g", outScale)
	}
	dst.Data = growInt8(dst.Data, len(acc))
	dst.Dims = append(dst.Dims[:0], dims...)
	dst.Scale = outScale
	dst.Bits = bits
	ratio := float64(accScale) / float64(outScale)
	qmax := QMax(bits)
	d := dst.Data
	if relu {
		for i, a := range acc {
			v := clampToInt8(int32(math.RoundToEven(float64(a)*ratio)), qmax)
			if v < 0 {
				v = 0
			}
			d[i] = v
		}
		return nil
	}
	for i, a := range acc {
		d[i] = clampToInt8(int32(math.RoundToEven(float64(a)*ratio)), qmax)
	}
	return nil
}

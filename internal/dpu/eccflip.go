package dpu

import (
	"math/rand"

	"fpgauv/internal/ecc"
	"fpgauv/internal/fabric"
	"fpgauv/internal/quant"
)

// This file is the SECDED-protected form of the executor's BRAM
// weight-fault injection. Where the unprotected path flips independent
// bits of the weight image, the protected path samples fault events per
// 64-bit BRAM word (the ECC granule: 8 consecutive int8 codes), splits
// them by multiplicity with the fabric's per-word model, and routes each
// faulted word through the real SECDED codec: single-bit words come back
// corrected (the consumer sees the original data), double-bit words are
// flagged uncorrectable (corrupted data, visible flag), and ≥3-bit words
// either alias to a silent miscorrection or are detected, exactly as the
// decoder resolves them. Observable corruption is written in place and
// recorded byte-wise so the pass's restore can undo it.

// applyProtectedFaults corrupts one weight tensor through the SECDED
// policy. record is called once per changed byte with its
// pre-corruption value, in write order; undoing the writes in reverse
// record order restores the tensor bit-exactly even when two events hit
// the same word. Returns the raw flipped-bit count (the physical fault
// rate, identical in expectation to the unprotected path) and the
// outcome split.
func applyProtectedFaults(prot *ecc.Protection, w *quant.QTensor, pBit float64, rng *rand.Rand, record func(idx int32, old int8)) (raw int64, counts ecc.Counts) {
	if pBit <= 0 || len(w.Data) == 0 {
		return 0, counts
	}
	words := (len(w.Data) + 7) / 8
	bitsPerWord := 8 * w.Bits
	if bitsPerWord > ecc.WordBits {
		bitsPerWord = ecc.WordBits
	}
	wf := fabric.SampleWordFaults(rng, int64(words), bitsPerWord, pBit)

	apply := func(events int64, flips int) {
		var chosen [3]int
		for e := int64(0); e < events; e++ {
			base := rng.Intn(words) * 8
			nb := len(w.Data) - base
			if nb > 8 {
				nb = 8
			}
			usable := nb * w.Bits
			m := flips
			if m > usable {
				m = usable
			}
			orig := ecc.PackWord(w.Data, base)
			faulty := orig
			for f := 0; f < m; f++ {
				for {
					pos := rng.Intn(usable)
					dup := false
					for _, c := range chosen[:f] {
						if c == pos {
							dup = true
							break
						}
					}
					if !dup {
						chosen[f] = pos
						break
					}
				}
				// Flat position j*Bits+b is bit b of code byte j: flips
				// stay inside the quantized bit width, like the
				// unprotected path.
				faulty ^= 1 << uint(chosen[f]/w.Bits*8+chosen[f]%w.Bits)
			}
			raw += int64(m)
			final, outcome := prot.Process(orig, faulty)
			switch outcome {
			case ecc.OutcomeCorrected:
				counts.Corrected++
			case ecc.OutcomeDetected:
				counts.Detected++
			case ecc.OutcomeSilent:
				counts.Silent++
			}
			if final == orig {
				continue
			}
			for j := 0; j < nb; j++ {
				nv := int8(uint8(final >> uint(8*j)))
				if w.Data[base+j] != nv {
					record(int32(base+j), w.Data[base+j])
					w.Data[base+j] = nv
				}
			}
		}
	}
	apply(wf.Singles, 1)
	apply(wf.Doubles, 2)
	apply(wf.Multis, 3)
	return raw, counts
}

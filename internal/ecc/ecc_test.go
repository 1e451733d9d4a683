package ecc

import (
	"math/rand"
	"testing"
)

// Every single-bit fault — any of the 64 data bits or 8 check bits —
// must decode back to the original word (SEC).
func TestSECDEDCorrectsEverySingleBit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 64; trial++ {
		data := rng.Uint64()
		check := Encode(data)
		for bit := 0; bit < WordBits; bit++ {
			out, o := Decode(data^1<<uint(bit), check)
			if o != OutcomeCorrected || out != data {
				t.Fatalf("data bit %d: outcome=%v out=%x want corrected %x", bit, o, out, data)
			}
		}
		for bit := 0; bit < CheckBits; bit++ {
			out, o := Decode(data, check^1<<uint(bit))
			if o != OutcomeCorrected || out != data {
				t.Fatalf("check bit %d: outcome=%v out=%x want corrected %x", bit, o, out, data)
			}
		}
		if out, o := Decode(data, check); o != OutcomeClean || out != data {
			t.Fatalf("clean word misdecoded: outcome=%v", o)
		}
	}
}

// Every double-bit data fault must be detected, never silently
// miscorrected (DED).
func TestSECDEDDetectsEveryDoubleBit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 16; trial++ {
		data := rng.Uint64()
		check := Encode(data)
		for a := 0; a < WordBits; a++ {
			for b := a + 1; b < WordBits; b++ {
				_, o := Decode(data^1<<uint(a)^1<<uint(b), check)
				if o != OutcomeDetected {
					t.Fatalf("double fault (%d,%d) decoded as %v", a, b, o)
				}
			}
		}
	}
}

// Triple-bit faults must never report a clean or truly-corrected word:
// Process must classify them as silent (aliased correction) or detected.
func TestProcessClassifiesTripleBitFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewProtection(true)
	var silent, detected int64
	for trial := 0; trial < 5000; trial++ {
		data := rng.Uint64()
		a, b, c := rng.Intn(64), rng.Intn(64), rng.Intn(64)
		if a == b || b == c || a == c {
			continue
		}
		faulty := data ^ 1<<uint(a) ^ 1<<uint(b) ^ 1<<uint(c)
		out, o := p.Process(data, faulty)
		switch o {
		case OutcomeSilent:
			silent++
			if out == data {
				t.Fatal("silent outcome returned the original word")
			}
		case OutcomeDetected:
			detected++
		default:
			t.Fatalf("triple fault classified %v (out=%x orig=%x)", o, out, data)
		}
	}
	if silent == 0 {
		t.Error("no triple fault aliased to a silent miscorrection")
	}
	c := p.Counts()
	if c.Silent != silent || c.Detected != detected || c.Corrected != 0 {
		t.Errorf("counters %+v, want silent=%d detected=%d corrected=0", c, silent, detected)
	}
	if c.Total() != silent+detected || c.Bad() != silent+detected {
		t.Errorf("Total/Bad inconsistent: %+v", c)
	}
}

// Process on a single-bit fault corrects transparently and counts it.
func TestProcessCorrectsSingleBit(t *testing.T) {
	p := NewProtection(true)
	out, o := p.Process(0xdeadbeefcafef00d, 0xdeadbeefcafef00d^1<<17)
	if o != OutcomeCorrected || out != 0xdeadbeefcafef00d {
		t.Fatalf("outcome=%v out=%x", o, out)
	}
	if c := p.Counts(); c.Corrected != 1 || c.Bad() != 0 {
		t.Errorf("counters %+v", c)
	}
}

// The scrubber must restore a bit-exact fault-free image from arbitrary
// resident corruption: single-bit words via the decoder, multi-bit words
// via golden reload.
func TestScrubRestoresGoldenImage(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Two tensors, one with a non-multiple-of-8 tail word.
	a := make([]int8, 256)
	b := make([]int8, 77)
	for i := range a {
		a[i] = int8(rng.Intn(256))
	}
	for i := range b {
		b[i] = int8(rng.Intn(256))
	}
	goldA := append([]int8(nil), a...)
	goldB := append([]int8(nil), b...)

	prot := NewProtection(true)
	s := NewScrubber([][]int8{a, b})
	if want := int64(256/8 + (77+7)/8); s.Words() != want {
		t.Fatalf("Words() = %d, want %d", s.Words(), want)
	}

	// Corrupt: a single-bit fault in word 0 of a, a 3-bit smear across
	// word 4 of a, and a 2-bit fault in b's tail word.
	a[0] ^= 1 << 3
	a[32] ^= 1 << 1
	a[33] ^= 1 << 6
	a[34] ^= 1 << 2
	b[72] ^= 1 << 0
	b[76] ^= 1 << 5

	rep := s.Scrub(prot)
	if rep.Corrected != 1 {
		t.Errorf("corrected = %d, want 1", rep.Corrected)
	}
	if rep.Reloaded != 2 {
		t.Errorf("reloaded = %d, want 2", rep.Reloaded)
	}
	for i := range a {
		if a[i] != goldA[i] {
			t.Fatalf("a[%d] = %d, want %d after scrub", i, a[i], goldA[i])
		}
	}
	for i := range b {
		if b[i] != goldB[i] {
			t.Fatalf("b[%d] = %d, want %d after scrub", i, b[i], goldB[i])
		}
	}
	if prot.ScrubbedWords() != 3 {
		t.Errorf("ScrubbedWords = %d, want 3", prot.ScrubbedWords())
	}

	// A second pass over the clean image finds nothing.
	rep = s.Scrub(prot)
	if rep.Corrected != 0 || rep.Reloaded != 0 {
		t.Errorf("clean pass repaired %+v", rep)
	}
	passes, scanned, corrected, reloaded := s.Stats()
	if passes != 2 || corrected != 1 || reloaded != 2 || scanned != 2*s.Words() {
		t.Errorf("stats passes=%d scanned=%d corrected=%d reloaded=%d", passes, scanned, corrected, reloaded)
	}
}

// A nil / disabled Protection must be inert and safe.
func TestProtectionZeroValues(t *testing.T) {
	var p *Protection
	if p.Enabled() {
		t.Error("nil protection reports enabled")
	}
	if c := p.Counts(); c != (Counts{}) {
		t.Errorf("nil counts %+v", c)
	}
	if p.ScrubbedWords() != 0 {
		t.Error("nil scrubbed words")
	}
	p2 := NewProtection(false)
	if p2.Enabled() {
		t.Error("disabled protection reports enabled")
	}
	p2.SetEnabled(true)
	if !p2.Enabled() {
		t.Error("enable did not take")
	}
}

// FuzzSECDED flips 0–2 distinct bits of a fuzzed data word's 72-bit
// codeword (bits 0–63 data, 64–71 check) and holds Decode to the SECDED
// contract: no flip decodes clean, one flip — data or check — decodes
// corrected with the data intact, and two flips are detected, never
// corrected and never silent.
func FuzzSECDED(f *testing.F) {
	// The seed corpus proper is testdata/fuzz/FuzzSECDED.
	f.Add(uint64(0xdeadbeefcafef00d), uint8(2), uint8(3), uint8(70))
	f.Fuzz(func(t *testing.T, data uint64, flips, a, b uint8) {
		n := int(flips) % 3
		pa := int(a) % (WordBits + CheckBits)
		pb := (pa + 1 + int(b)%(WordBits+CheckBits-1)) % (WordBits + CheckBits)
		check := Encode(data)
		word, chk := data, check
		for _, pos := range []int{pa, pb}[:n] {
			if pos < WordBits {
				word ^= 1 << uint(pos)
			} else {
				chk ^= 1 << uint(pos-WordBits)
			}
		}
		out, o := Decode(word, chk)
		switch n {
		case 0:
			if o != OutcomeClean || out != data {
				t.Fatalf("%#x unflipped: %v, out %#x", data, o, out)
			}
		case 1:
			if o != OutcomeCorrected || out != data {
				t.Fatalf("%#x flip %d: %v, out %#x", data, pa, o, out)
			}
		case 2:
			if o != OutcomeDetected {
				t.Fatalf("%#x flips %d,%d: %v, out %#x", data, pa, pb, o, out)
			}
		}
	})
}

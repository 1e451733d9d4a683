package dpu

import (
	"math"
	"testing"

	"fpgauv/internal/ecc"
	"fpgauv/internal/quant"
)

// TestRunBatchPartitionIndependent pins the executor's partition
// contract: how a pass is cut into lanes, which executor claims which
// lane, and whether the lane GEMMs fan out or stay serial must never
// show in its output. For every batch size 1…17 and every pool width
// 1…4 — widths that do and do not divide the lane count, lanes of two
// images and of one, passes with fewer lanes than executors (tile
// fan-out) and with more (serial GEMMs) — with MAC and BRAM faults live, unprotected and
// under SECDED: predictions, probability bits, fault and ECC counts are
// those of the width-1 run, the weights are byte-identical to golden
// after every pass, and a warm arena allocates nothing.
func TestRunBatchPartitionIndependent(t *testing.T) {
	defer quant.SetWorkers(0)
	const pMAC, pBRAM = 2e-4, 1e-3
	type snap struct {
		pred       int
		macF, brmF int64
		ecc        ecc.Counts
		probs      []uint32
	}
	for _, tc := range []struct {
		name      string
		protected bool
	}{{"unprotected", false}, {"secded", true}} {
		t.Run(tc.name, func(t *testing.T) {
			d, k, inputs := buildConvNetKernel(t)
			d.SetProtection(ecc.NewProtection(tc.protected))
			golden := kernelWeightSnapshot(k)
			s := NewScratch()
			var macF, brmF, eccWords int64
			for n := 1; n <= 17; n++ {
				in := makeBatch(inputs, n)
				rngs := s.BatchRNGs(n)
				run := func() []Result {
					for i, r := range rngs {
						r.Seed(int64(n)*1000 + int64(i)*7919)
					}
					res, err := d.runBatch(s, k, in, rngs, pMAC, pBRAM)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				pass := func() []Result {
					res := run()
					checkWeightSnapshot(t, k, golden, "after a pass")
					return res
				}
				quant.SetWorkers(1)
				var want []snap
				for _, r := range pass() {
					sn := snap{pred: r.Pred, macF: r.MACFaults, brmF: r.BRAMFaults, ecc: r.ECC}
					for _, p := range r.Probs.Data() {
						sn.probs = append(sn.probs, math.Float32bits(p))
					}
					want = append(want, sn)
					macF, brmF, eccWords = macF+r.MACFaults, brmF+r.BRAMFaults, eccWords+r.ECC.Total()
				}
				for w := 1; w <= 4; w++ {
					quant.SetWorkers(w)
					for i, r := range pass() {
						if r.Pred != want[i].pred || r.MACFaults != want[i].macF || r.BRAMFaults != want[i].brmF || r.ECC != want[i].ecc {
							t.Fatalf("n=%d workers=%d image %d: pred %d/%d MAC %d/%d BRAM %d/%d ECC %+v/%+v", n, w, i,
								r.Pred, want[i].pred, r.MACFaults, want[i].macF, r.BRAMFaults, want[i].brmF, r.ECC, want[i].ecc)
						}
						for j, p := range r.Probs.Data() {
							if math.Float32bits(p) != want[i].probs[j] {
								t.Fatalf("n=%d workers=%d image %d: probs[%d] = %v, width-1 run %v", n, w, i, j, p, math.Float32frombits(want[i].probs[j]))
							}
						}
					}
					// The arena's path through a pass is the same at every
					// width, so width 1 — no pool, nothing amortized — pins
					// it for every n. Wider, a pooled job descriptor is
					// occasionally re-made (a helper still holds the last
					// one; -race drops a quarter of sync.Pool Puts), which
					// a long run amortizes below one per pass: pinned once,
					// on the full micro-batch.
					runs := 0
					switch {
					case w == 1:
						runs = 10
					case w == 2 && n == 16:
						runs = 100
					}
					if runs > 0 {
						if allocs := testing.AllocsPerRun(runs, func() { run() }); allocs != 0 {
							t.Fatalf("n=%d workers=%d: %v allocs per pass on a warm arena", n, w, allocs)
						}
					}
				}
			}
			if macF == 0 || brmF == 0 || (tc.protected && eccWords == 0) {
				t.Fatalf("fault paths not exercised: MAC %d BRAM %d ECC words %d", macF, brmF, eccWords)
			}
		})
	}
}

// TestLanesCoverPoolMeansNoNestedOffers turns "one level of parallelism
// per pass" into a count: a pass of at least Workers() images has at
// least that many lanes and is one pool job — the lanes — whose GEMMs
// offer nothing, while the lone image, one lane on a wider pool, still
// fans its macro-tiles out.
func TestLanesCoverPoolMeansNoNestedOffers(t *testing.T) {
	defer quant.SetWorkers(0)
	d, k, inputs := buildConvNetKernel(t)
	s := NewScratch()
	jobs := func(n int) int64 {
		before := quant.PoolStats().Jobs
		if _, err := d.RunBatchClean(s, k, makeBatch(inputs, n)); err != nil {
			t.Fatal(err)
		}
		return quant.PoolStats().Jobs - before
	}
	for _, w := range []int{2, 3, 4} {
		quant.SetWorkers(w)
		for n := w; n <= 17; n++ {
			if got := jobs(n); got != 1 {
				_, lanes := laneSplit(n, w)
				t.Fatalf("workers=%d: a %d-image pass (%d lanes) ran %d pool jobs, want 1", w, n, lanes, got)
			}
		}
		if got := jobs(1); got < 1 {
			t.Fatalf("workers=%d: the lone image ran %d pool jobs, want its GEMM tiles offered", w, got)
		}
	}
	quant.SetWorkers(1)
	if got := jobs(16); got != 0 {
		t.Fatalf("workers=1: %d pool jobs, want none", got)
	}
}

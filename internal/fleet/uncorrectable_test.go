package fleet

import (
	"context"
	"math"
	"strings"
	"testing"

	"fpgauv/internal/ecc"
	"fpgauv/internal/models"
	"fpgauv/internal/obs"
)

// VCCBRAM levels, well below BRAM Vmin (560 mV), at which SECDED sees
// real double-bit words on the one-board VGGNet pool below. Measured over
// 300 four-image jobs each: at 505 mV about one pass in two is flagged
// and none serves a silent word; at 504 mV about one job in 75 serves a
// silent word; at 495 mV every pass carries tens of flagged words.
const (
	rerunBRAMmV  = 505
	silentBRAMmV = 504
	floodBRAMmV  = 495
)

// uncorrectablePool is one SECDED-protected board with every background
// loop (monitor, governor, scrubber) off, so the rails stay where the
// test puts them and every flagged word comes from a served pass.
func uncorrectablePool(t *testing.T) *Pool {
	t.Helper()
	return newTestPool(t, eccTestConfig(1, true))
}

// setBRAM commands board 0's VCCBRAM rail.
func setBRAM(t *testing.T, p *Pool, mv float64) {
	t.Helper()
	m := p.members[0]
	m.mu.Lock()
	err := m.setVCCBRAM(mv)
	m.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}

func eccStatus(t *testing.T, p *Pool) *BoardECCStatus {
	t.Helper()
	st := p.Status().Boards[0].ECC
	if st == nil {
		t.Fatal("no ECC status")
	}
	return st
}

// journaled counts the journal's ecc_uncorrectable events whose detail
// contains s.
func journaled(p *Pool, s string) int {
	var n int
	for _, ev := range p.Journal().Tail(1 << 12) {
		if ev.Kind == obs.EvECCUncorrectable && strings.Contains(ev.Detail, s) {
			n++
		}
	}
	return n
}

// sameOutputs reports whether two answers agree bit for bit.
func sameOutputs(a, b []InferOutput) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Pred != b[i].Pred || len(a[i].Probs) != len(b[i].Probs) {
			return false
		}
		for c := range a[i].Probs {
			if math.Float32bits(a[i].Probs[c]) != math.Float32bits(b[i].Probs[c]) {
				return false
			}
		}
	}
	return true
}

// TestUncorrectableWordIsRerun lowers VCCBRAM until SECDED flags real
// double-bit words in served passes, on each serving path. A flagged
// pass is discarded and run again on a fresh fault draw, so every job
// returns no detected word, and a job without a silent word returns the
// fault-free oracle's answer (corrected words are invisible and the
// VCCINT rail is inside the guardband). The board counts and journals
// each rerun.
func TestUncorrectableWordIsRerun(t *testing.T) {
	p := uncorrectablePool(t)
	ctx := context.Background()
	bench, _ := models.New("VGGNet", models.Tiny)
	imgs := bench.MakeDataset(4, 9).Inputs
	oracle, err := p.Infer(ctx, InferRequest{Images: imgs, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	oracleEval, err := p.Classify(ctx, Request{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if oracle.MACFaults != 0 || oracle.ECC.Total() != 0 || oracleEval.ECC.Total() != 0 {
		t.Fatalf("the oracle passes saw faults: MAC %d, ECC %+v and %+v", oracle.MACFaults, oracle.ECC, oracleEval.ECC)
	}

	setBRAM(t, p, rerunBRAMmV)
	paths := []struct {
		name  string
		serve func(seed int64) (c ecc.Counts, asOracle bool, err error)
	}{
		{"infer", func(seed int64) (ecc.Counts, bool, error) {
			res, err := p.Infer(ctx, InferRequest{Images: imgs, Seed: seed})
			return res.ECC, sameOutputs(res.Outputs, oracle.Outputs), err
		}},
		{"evaluation", func(seed int64) (ecc.Counts, bool, error) {
			res, err := p.Classify(ctx, Request{Seed: seed})
			return res.ECC, res.AccuracyPct == oracleEval.AccuracyPct && res.MACFaults == 0, err
		}},
	}
	const jobs = 40
	for _, path := range paths {
		var rerunJobs int
		for seed := int64(1); seed <= jobs; seed++ {
			before := eccStatus(t, p).Reruns
			c, asOracle, err := path.serve(seed)
			if err != nil {
				t.Fatalf("%s job %d: %v", path.name, seed, err)
			}
			if c.Detected != 0 {
				t.Fatalf("%s job %d: a served answer carries %d detected words", path.name, seed, c.Detected)
			}
			if c.Silent == 0 && !asOracle {
				t.Fatalf("%s job %d (ECC %+v): the answer differs from the fault-free oracle", path.name, seed, c)
			}
			if eccStatus(t, p).Reruns > before {
				rerunJobs++
			}
		}
		if rerunJobs == 0 {
			t.Fatalf("%s: no pass of %d jobs at %d mV VCCBRAM was flagged", path.name, jobs, rerunBRAMmV)
		}
	}
	st := eccStatus(t, p)
	if st.Detected < st.Reruns {
		t.Fatalf("%d reruns for %d detected words", st.Reruns, st.Detected)
	}
	if n := journaled(p, "rerun "); int64(n) != st.Reruns {
		t.Fatalf("%d journaled reruns, the board counted %d", n, st.Reruns)
	}
}

// TestUncorrectableRerunsAreBounded: when every pass is flagged, a job
// fails with an error after a bounded number of reruns on each visit; it
// never returns a flagged answer.
func TestUncorrectableRerunsAreBounded(t *testing.T) {
	p := uncorrectablePool(t)
	bench, _ := models.New("VGGNet", models.Tiny)
	setBRAM(t, p, floodBRAMmV)
	res, err := p.Infer(context.Background(), InferRequest{Images: bench.MakeDataset(4, 9).Inputs, Seed: 5})
	if err == nil || !strings.Contains(err.Error(), "uncorrectable") {
		t.Fatalf("want an uncorrectable-word error, got %v (result %+v)", err, res)
	}
	st := eccStatus(t, p)
	const visits = 3 // the default MaxAttempts: each visit fails and requeues the job
	// Each visit runs the pass and its maxECCReruns reruns, all flagged.
	if st.Reruns != maxECCReruns*visits || st.Detected < (maxECCReruns+1)*visits {
		t.Fatalf("%d reruns and %d detected words over %d visits, want %d reruns and at least %d words per visit",
			st.Reruns, st.Detected, visits, maxECCReruns, maxECCReruns+1)
	}
	if n := journaled(p, "giving up"); n != visits {
		t.Fatalf("%d journaled give-ups, want one per visit (%d)", n, visits)
	}
}

// TestUncorrectableSilentWordsStillCounted runs jobs at a VCCBRAM where
// SECDED now and then aliases a three-bit word to a silent
// miscorrection. A silent word is invisible to the host, so its pass is
// served; the word is still reported in the job's counts, the board's,
// and the fault signal the governor reads.
func TestUncorrectableSilentWordsStillCounted(t *testing.T) {
	p := uncorrectablePool(t)
	m := p.members[0]
	bench, _ := models.New("VGGNet", models.Tiny)
	imgs := bench.MakeDataset(4, 9).Inputs
	setBRAM(t, p, silentBRAMmV)
	const jobs = 400
	for seed := int64(1); seed <= jobs; seed++ {
		silentBefore, signalBefore := eccStatus(t, p).Silent, m.servedBRAM.Load()
		res, err := p.Infer(context.Background(), InferRequest{Images: imgs, Seed: seed})
		if err != nil {
			// Four flagged passes in a row on every visit: rare here,
			// and bounded by TestUncorrectableRerunsAreBounded.
			continue
		}
		if res.ECC.Detected != 0 {
			t.Fatalf("job %d: a served answer carries %d detected words", seed, res.ECC.Detected)
		}
		if res.ECC.Silent == 0 {
			continue
		}
		if got := eccStatus(t, p).Silent - silentBefore; got < res.ECC.Silent {
			t.Fatalf("job %d served %d silent words, the board counted %d", seed, res.ECC.Silent, got)
		}
		if got := m.servedBRAM.Load() - signalBefore; got < res.ECC.Silent {
			t.Fatalf("job %d served %d silent words, the governor's signal grew by %d", seed, res.ECC.Silent, got)
		}
		return
	}
	t.Fatalf("%d jobs at %d mV VCCBRAM and none served a silent word", jobs, silentBRAMmV)
}

package dpu

import (
	"math"
	"math/rand"
	"testing"

	"fpgauv/internal/board"
	"fpgauv/internal/fabric"
)

func TestVariantTable(t *testing.T) {
	vs := Variants()
	if len(vs) != 7 {
		t.Fatalf("expected 7 DPU variants, got %d", len(vs))
	}
	prev := 0
	for _, v := range vs {
		if v.OpsPerCycle <= prev {
			t.Fatalf("variants must grow: %s", v.Arch)
		}
		prev = v.OpsPerCycle
		if err := v.Util.Validate(); err != nil {
			t.Fatalf("%s: %v", v.Arch, err)
		}
	}
	if _, err := VariantByName("B4096"); err != nil {
		t.Fatal(err)
	}
	if _, err := VariantByName("B9999"); err == nil {
		t.Fatal("unknown variant must fail")
	}
}

func TestB4096MatchesPaper(t *testing.T) {
	cfg := B4096()
	if cfg.OpsPerCycle != 4096 || cfg.DefaultFreqMHz != 333 || cfg.DSPFreqMHz != 666 {
		t.Fatalf("B4096 clocks/ops wrong: %+v", cfg)
	}
	// §3.1: 24.3% BRAM, 25.6% DSP per core; max 3 cores.
	if math.Abs(cfg.Util.BRAMs-0.243) > 1e-9 || math.Abs(cfg.Util.DSPs-0.256) > 1e-9 {
		t.Fatalf("B4096 utilization: %v", cfg.Util)
	}
	if got := cfg.MaxCores(); got != 3 {
		t.Fatalf("max B4096 cores = %d, want 3 (paper §3.1)", got)
	}
	// Peak: 4096 ops * 3 cores * 333 MHz ≈ 4092 GOPs.
	if peak := cfg.PeakGOPs(3, 333); math.Abs(peak-4092) > 5 {
		t.Fatalf("peak GOPs = %.0f", peak)
	}
}

func TestNewValidatesCapacity(t *testing.T) {
	brd := board.MustNew(board.SampleB)
	if _, err := New(brd, B4096(), 4); err == nil {
		t.Fatal("4 B4096 cores must not fit")
	}
	d, err := New(board.MustNew(board.SampleB), B4096(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Cores() != 3 {
		t.Fatal("cores")
	}
	util := d.Board().Fabric().Utilization()
	if util.DSPs < 0.75 || util.BRAMs < 0.72 {
		t.Fatalf("3 cores should use ≈75%% of DSP/BRAM: %v", util)
	}
	if _, err := New(brd, B4096(), 0); err == nil {
		t.Fatal("zero cores must fail")
	}
}

func TestInjectMACFaultsStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	acc := make([]int32, 1000)
	n := sampleMACFaults(rng, 1_000_000, 1e-4, len(acc))
	applyMACFaults(acc, n, rng)
	if n < 50 || n > 200 {
		t.Fatalf("expected ≈100 faults, got %d", n)
	}
	changed := 0
	for _, v := range acc {
		if v != 0 {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("faults must corrupt accumulators")
	}
	if sampleMACFaults(rng, 1000, 0, len(acc)) != 0 {
		t.Fatal("p=0 must inject nothing")
	}
}

func TestInstrKindString(t *testing.T) {
	if InstrConv.String() != "CONV" || InstrSave.String() != "SAVE" {
		t.Fatal("instr names")
	}
	if InstrKind(42).String() == "" {
		t.Fatal("unknown instr should format")
	}
}

// kernel GOPs model must reproduce the Table 2 GOPs staircase shape with
// the calibrated 58% compute fraction.
func TestImageTimeFrequencyScaling(t *testing.T) {
	k := &Kernel{
		ComputeFrac: 0.58,
		Program: Program{
			Instrs:       []Instr{{Kind: InstrConv, Ops: 2_000_000, Efficiency: 0.75}},
			OpsPerImage:  2_000_000,
			EffectiveOps: 2_000_000,
		},
	}
	base := k.GOPs(3, 333)
	cases := []struct {
		f    float64
		want float64 // paper Table 2 GOPs column
		tol  float64
	}{
		{300, 0.94, 0.01},
		{250, 0.83, 0.01},
		{200, 0.70, 0.03},
	}
	for _, c := range cases {
		got := k.GOPs(3, c.f) / base
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("GOPs(%v)/GOPs(333) = %.3f, want %.2f±%.2f (Table 2)", c.f, got, c.want, c.tol)
		}
	}
}

func TestSparsityReducesImageTime(t *testing.T) {
	mk := func(effOps int64) *Kernel {
		return &Kernel{
			ComputeFrac: 0.58,
			Program: Program{
				Instrs:       []Instr{{Kind: InstrConv, Ops: 2_000_000, Efficiency: 0.75}},
				OpsPerImage:  2_000_000,
				EffectiveOps: effOps,
			},
		}
	}
	dense := mk(2_000_000)
	sparse := mk(1_400_000) // 50% sparsity * 0.6 skip efficiency
	if sparse.ImageTimeS(333) >= dense.ImageTimeS(333) {
		t.Fatal("sparse kernel must be faster")
	}
	if sparse.GOPs(3, 333) <= dense.GOPs(3, 333) {
		t.Fatal("sparse kernel must have higher dense-op throughput")
	}
}

func TestSampleFaultsViaFabricIntegration(t *testing.T) {
	// Smoke-check the fabric hook the executor depends on.
	brd := board.MustNew(board.SampleB)
	cond := fabric.Conditions{VCCINTmV: 550, VCCBRAMmV: 850, TempC: 34, FreqMHz: 333}
	if p := brd.Fabric().MACFaultProb(cond); p <= 0 {
		t.Fatal("expected faults at 550 mV")
	}
}

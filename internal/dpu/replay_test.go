package dpu

import (
	"math"
	"slices"
	"testing"

	"fpgauv/internal/ecc"
	"fpgauv/internal/quant"
	"fpgauv/internal/tensor"
)

// replayKernels are a chain, whose traces keep no activation, and a
// residual block, whose traces keep the one its skip connection spans.
var replayKernels = []func(*testing.T) (*DPU, *Kernel, []*tensor.Tensor){buildConvNetKernel, buildResidualKernel}

// probBits snapshots a pass's per-image predictions, fault counts and
// probability bits.
func probBits(res []Result) [][]uint32 {
	out := make([][]uint32, len(res))
	for i, r := range res {
		out[i] = []uint32{uint32(r.Pred), uint32(r.MACFaults), uint32(r.BRAMFaults), uint32(r.ECC.Total())}
		for _, p := range r.Probs.Data() {
			out[i] = append(out[i], math.Float32bits(p))
		}
	}
	return out
}

// TestReplayMatchesFullPassAtEveryWidth drives the replay from the
// fault-free rate up to one where every image leaves its trace in the
// first layer, at pool widths 1…4 and batch sizes that cut into lanes of
// two and of one: a traced pass is bit-identical to the untraced one fed
// the same streams. With BRAM flips sampled the replay is off, and the
// pass still matches.
func TestReplayMatchesFullPassAtEveryWidth(t *testing.T) {
	defer quant.SetWorkers(0)
	for _, build := range replayKernels {
		for _, protected := range []bool{false, true} {
			d, k, inputs := build(t)
			d.SetProtection(ecc.NewProtection(protected))
			for _, n := range []int{1, 2, 5, 16} {
				in := makeBatch(inputs, n)
				traces, err := d.TraceBatch(nil, k, in)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range [][2]float64{{0, 0}, {1e-5, 0}, {2e-4, 0}, {5e-3, 0}, {2e-4, 1e-3}} {
					for seed := int64(1); seed <= 3; seed++ {
						quant.SetWorkers(1)
						full, err := d.runBatch(nil, k, in, seededRNGs(seed, n), nil, p[0], p[1])
						if err != nil {
							t.Fatal(err)
						}
						want := probBits(full)
						for w := 1; w <= 4; w++ {
							quant.SetWorkers(w)
							got, err := d.runBatch(nil, k, in, seededRNGs(seed, n), traces, p[0], p[1])
							if err != nil {
								t.Fatal(err)
							}
							for i, g := range probBits(got) {
								if !slices.Equal(g, want[i]) {
									t.Fatalf("%s secded=%v n=%d p=%v seed=%d workers=%d image %d: replay %v, full %v",
										k.Name, protected, n, p, seed, w, i, g, want[i])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestReplayNeverWritesTheTrace pins the trace's immutability: a caller
// writing the Probs of an image that never left its trace, and any number
// of faulty replays, leave every trace bit as recorded — so the next pass
// reads the golden run, not the last one's leftovers.
func TestReplayNeverWritesTheTrace(t *testing.T) {
	d, k, inputs := buildResidualKernel(t)
	in := makeBatch(inputs, 6)
	traces, err := d.TraceBatch(nil, k, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces[0].i8) == 0 {
		t.Fatal("the residual trace keeps no activation: nothing to guard")
	}
	type snap struct {
		i8    []int8
		i32   []int32
		probs []float32
	}
	golden := make([]snap, len(traces))
	for i, tr := range traces {
		golden[i] = snap{slices.Clone(tr.i8), slices.Clone(tr.i32), slices.Clone(tr.probs)}
	}
	s := NewScratch()
	for round := 0; round < 3; round++ {
		clean, err := d.runBatch(s, k, in, seededRNGs(int64(round), len(in)), traces, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range clean {
			if !slices.Equal(clean[i].Probs.Data(), traces[i].probs) {
				t.Fatalf("round %d image %d: fault-free replay probs %v, trace %v", round, i, clean[i].Probs.Data(), traces[i].probs)
			}
			for j := range clean[i].Probs.Data() {
				clean[i].Probs.Data()[j] = -1
			}
		}
		if _, err := d.runBatch(s, k, in, seededRNGs(int64(round), len(in)), traces, 2e-4, 0); err != nil {
			t.Fatal(err)
		}
		for i, tr := range traces {
			g := golden[i]
			if !slices.Equal(tr.i8, g.i8) || !slices.Equal(tr.i32, g.i32) || !slices.Equal(tr.probs, g.probs) {
				t.Fatalf("round %d: trace %d changed under replay", round, i)
			}
		}
	}
}

// TestReplayWarmPassAllocatesNothing: the replay keeps the executor's
// arena contract — a warm faulty pass over traces allocates nothing; only
// recording the traces does.
func TestReplayWarmPassAllocatesNothing(t *testing.T) {
	defer quant.SetWorkers(0)
	quant.SetWorkers(1)
	d, k, inputs := buildResidualKernel(t)
	in := makeBatch(inputs, 16)
	traces, err := d.TraceBatch(nil, k, in)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScratch()
	rngs := s.BatchRNGs(len(in))
	pass := func() {
		for i, r := range rngs {
			r.Seed(int64(i))
		}
		if _, err := d.runBatch(s, k, in, rngs, traces, 2e-4, 0); err != nil {
			t.Fatal(err)
		}
	}
	pass()
	if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
		t.Fatalf("%v allocs per warm replaying pass", allocs)
	}
}

package dnndk

import (
	"testing"

	"fpgauv/internal/board"
	"fpgauv/internal/models"
)

// TestDeployGoldenFingerprints pins calibration output bit for bit:
// one fingerprint per Tiny benchmark dense and 50% block-pruned, recorded
// before the float reference conv became a row walk and the calibration
// forwards fanned out. Any drift in the float accumulation order moves a
// max-abs, hence a scale, hence these. A deployment through the kernel
// store loads the same bytes, both when it compiles the kernel (a miss)
// and when it copies the compiled entry (a hit).
func TestDeployGoldenFingerprints(t *testing.T) {
	golden := map[string][2]uint64{
		"VGGNet":    {0x64e43fd926fd520e, 0x2c41debb9db0ee6e},
		"GoogleNet": {0xaa258ce9bb5254e0, 0x243e37983c02efde},
		"AlexNet":   {0x7f0ce4f8d7af6ac0, 0xc03c50a9d8f391f3},
		"ResNet50":  {0x4197410676920ad0, 0x83cd712bfe23f4e0},
		"Inception": {0x17cdb7a79eeb7c1d, 0xab896a23137de1d2},
	}
	for _, name := range models.Names() {
		for i, sparsity := range []float64{0, 0.5} {
			b, err := models.New(name, models.Tiny)
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultQuantizeOptions()
			opts.Sparsity = sparsity
			opts.PruneBlocks = sparsity > 0
			k, err := Quantize(b, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := kernelFingerprint(k), golden[name][i]; got != want {
				t.Errorf("%s sparsity %.1f: fingerprint %#016x, want %#016x", name, sparsity, got, want)
			}

			key := compileKey{bench: name, preset: models.Tiny, opts: opts}
			if n := kernelRefs(key); n != 0 {
				t.Fatalf("%s sparsity %.1f: %d store references before the first deploy", name, sparsity, n)
			}
			miss := deployKey(t, board.SampleA, key)
			hit := deployKey(t, board.SampleB, key)
			if hit.Bench != miss.Bench || kernelRefs(key) != 2 {
				t.Fatalf("%s sparsity %.1f: the second deploy did not hit the store", name, sparsity)
			}
			for _, dep := range []struct {
				kind string
				*Deployed
			}{{"miss", miss}, {"hit", hit}} {
				got, want := kernelFingerprint(dep.Task.Kernel), golden[name][i]
				if got != want || dep.Task.golden.kernelFP != want {
					t.Errorf("%s sparsity %.1f store %s: fingerprint %#016x (trace key %#016x), want %#016x",
						name, sparsity, dep.kind, got, dep.Task.golden.kernelFP, want)
				}
				if err := dep.Task.Unload(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

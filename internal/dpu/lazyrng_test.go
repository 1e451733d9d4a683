package dpu

import (
	"math/rand"
	"testing"
)

// TestLazySeedMatchesEager holds the arena's lazily seeded generators
// to eagerly seeded ones: the same values for interleaved Int63,
// Uint64, Intn, Float64 and NormFloat64 draws over many seeds,
// including a reseed mid-stream and a reseed before any draw.
func TestLazySeedMatchesEager(t *testing.T) {
	lazy := NewScratch().BatchRNGs(1)[0]
	pick := rand.New(rand.NewSource(11))
	for round := 0; round < 200; round++ {
		seed := pick.Int63() - pick.Int63()
		if round%7 == 3 {
			lazy.Seed(pick.Int63()) // overwritten before any draw
		}
		lazy.Seed(seed)
		eager := rand.New(rand.NewSource(seed))
		draws := pick.Intn(40)
		if round%5 == 0 {
			draws = 0 // the next round reseeds a stream never drawn
		}
		for d := 0; d < draws; d++ {
			var got, want uint64
			switch op := pick.Intn(5); op {
			case 0:
				got, want = uint64(lazy.Int63()), uint64(eager.Int63())
			case 1:
				got, want = lazy.Uint64(), eager.Uint64()
			case 2:
				got, want = uint64(lazy.Intn(1000)), uint64(eager.Intn(1000))
			case 3:
				got, want = uint64(lazy.Float64()*(1<<53)), uint64(eager.Float64()*(1<<53))
			case 4:
				g, w := lazy.NormFloat64(), eager.NormFloat64()
				if g != w {
					t.Fatalf("round %d draw %d: NormFloat64 %v, eager %v", round, d, g, w)
				}
			}
			if got != want {
				t.Fatalf("round %d draw %d: got %d, eager %d", round, d, got, want)
			}
			if d == draws/2 && round%3 == 1 {
				reseed := pick.Int63()
				lazy.Seed(reseed)
				eager.Seed(reseed)
			}
		}
	}
}

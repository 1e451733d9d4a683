package nn_test

import (
	"fmt"
	"math"
	"testing"

	"fpgauv/internal/models"
	"fpgauv/internal/nn"
	"fpgauv/internal/tensor"
)

// TestConvMatchesDirectOnZoo runs every conv shape the five benchmarks
// deploy, at both presets, on the activations that really reach it, and
// holds Forward to the direct formula bit for bit.
func TestConvMatchesDirectOnZoo(t *testing.T) {
	for _, preset := range []models.Preset{models.Tiny, models.Small} {
		for _, b := range models.All(preset) {
			img := b.MakeDataset(1, 5).Inputs[0]
			outs, err := b.Graph.ForwardAll(img)
			if err != nil {
				t.Fatal(err)
			}
			convs := 0
			for _, n := range b.Graph.Nodes() {
				c, ok := n.Op.(*nn.Conv2D)
				if !ok {
					continue
				}
				x := img
				if id := n.Inputs[0]; id != nn.InputID {
					x = outs[id]
				}
				want, err := nn.ConvDirect(c, x)
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.Forward([]*tensor.Tensor{x})
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("%s/%s %s", preset, b.Name, n.Label)
				for i, w := range want.Data() {
					if g := got.Data()[i]; math.Float32bits(g) != math.Float32bits(w) {
						t.Fatalf("%s: out[%d] = %v, oracle %v", what, i, g, w)
					}
				}
				convs++
			}
			if convs == 0 {
				t.Fatalf("%s/%s: no conv layers", preset, b.Name)
			}
		}
	}
}

package nn_test

import (
	"testing"

	"fpgauv/internal/models"
	"fpgauv/internal/nn"
	"fpgauv/internal/tensor"
)

// BenchmarkConvForward runs every conv layer of each Tiny benchmark on
// the activation that really reaches it and reports the float
// reference path's throughput in GMAC/s.
func BenchmarkConvForward(b *testing.B) {
	for _, bm := range models.All(models.Tiny) {
		img := bm.MakeDataset(1, 5).Inputs[0]
		outs, err := bm.Graph.ForwardAll(img)
		if err != nil {
			b.Fatal(err)
		}
		type layer struct {
			c  *nn.Conv2D
			in []*tensor.Tensor
		}
		var layers []layer
		var macs int64
		for _, n := range bm.Graph.Nodes() {
			c, ok := n.Op.(*nn.Conv2D)
			if !ok {
				continue
			}
			x := img
			if id := n.Inputs[0]; id != nn.InputID {
				x = outs[id]
			}
			layers = append(layers, layer{c, []*tensor.Tensor{x}})
			macs += c.MACs(bm.Graph.InputShapesOf(n))
		}
		b.Run(bm.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, l := range layers {
					if _, err := l.c.Forward(l.in); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(macs)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
		})
	}
}

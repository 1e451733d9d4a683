package models

import (
	"fmt"
	"math"
	"math/rand"

	"fpgauv/internal/nn"
	"fpgauv/internal/tensor"
)

// Dataset is a deterministic synthetic evaluation set. Inputs mix a
// per-class prototype pattern with per-sample noise so that the model's
// decision boundary is exercised with diverse logit margins. Labels are
// *planted* after the fault-free reference predictions are known (see
// PlantLabels), which pins the fault-free accuracy to the paper's Table 1
// value while leaving the fault-induced degradation entirely mechanistic.
type Dataset struct {
	Name    string
	Classes int
	Shape   nn.Shape
	Inputs  []*tensor.Tensor
	// Labels is nil until PlantLabels is called.
	Labels []int

	// fp memoizes Fingerprint. Inputs are immutable after construction
	// (label planting rewrites Labels only), so the content hash is
	// computed at most once.
	fp uint64
}

// NewDataset generates n deterministic samples. Sample i mixes
// prototype i%bank with noise from its own seeded rng, so the samples
// are drawn on several executors (nn.Parallel) and come out the same
// at any width.
func NewDataset(name string, classes int, shape nn.Shape, n int, seed int64) *Dataset {
	d := &Dataset{
		Name:    name,
		Classes: classes,
		Shape:   shape,
		Inputs:  make([]*tensor.Tensor, n),
	}
	protoRng := rand.New(rand.NewSource(seed))
	// A small bank of class prototypes; 1000-class sets reuse a bank of
	// 32 prototypes — diversity of inputs is what matters, labels are
	// planted. Prototype i depends only on the draws before it, so a
	// set smaller than the bank builds only the ones it uses.
	bank := min(classes, 32)
	protos := make([]*tensor.Tensor, min(n, bank))
	for i := range protos {
		p := tensor.New(shape.C, shape.H, shape.W)
		p.FillRandn(protoRng, 1.0)
		protos[i] = p
	}
	nn.Parallel(n, func(i int) {
		rng := rand.New(rand.NewSource(seed + 7919*int64(i+1)))
		x := tensor.New(shape.C, shape.H, shape.W)
		x.FillRandn(rng, 0.6)
		if err := x.Add(protos[i%bank]); err != nil {
			panic(err) // shapes match by construction
		}
		d.Inputs[i] = x
	})
	return d
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Inputs) }

// Fingerprint returns a content hash of the dataset's identity: name,
// sample count and every input's float bit pattern. The trace store keys
// on it instead of the dataset's address — a pointer key silently aliases a
// freed dataset with a new one allocated at the same address. The hash is
// memoized; like every other Dataset operation it must be confined to one
// goroutine at a time.
func (d *Dataset) Fingerprint() uint64 {
	if d.fp != 0 {
		return d.fp
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(d.Name); i++ {
		h = (h ^ uint64(d.Name[i])) * prime64
	}
	h = (h ^ uint64(len(d.Inputs))) * prime64
	for _, in := range d.Inputs {
		for _, v := range in.Data() {
			b := math.Float32bits(v)
			h = (h ^ uint64(b&0xff)) * prime64
			h = (h ^ uint64(b>>8&0xff)) * prime64
			h = (h ^ uint64(b>>16&0xff)) * prime64
			h = (h ^ uint64(b>>24)) * prime64
		}
	}
	if h == 0 {
		h = 1 // keep 0 as the "not yet computed" sentinel
	}
	d.fp = h
	return h
}

// PlantLabels assigns ground-truth labels so that exactly
// round(len*targetAccPct/100) samples agree with the supplied fault-free
// predictions; the rest get a different class. After planting, evaluating
// the fault-free model yields targetAccPct by construction, and any
// fault-induced prediction flip moves accuracy toward 1/Classes — the
// paper's "classifier behaves randomly" end state at Vcrash.
func (d *Dataset) PlantLabels(preds []int, targetAccPct float64, seed int64) error {
	if len(preds) != len(d.Inputs) {
		return fmt.Errorf("models: %d predictions for %d samples", len(preds), len(d.Inputs))
	}
	if targetAccPct < 0 || targetAccPct > 100 {
		return fmt.Errorf("models: target accuracy %.1f%% out of range", targetAccPct)
	}
	n := len(preds)
	agree := int(float64(n)*targetAccPct/100 + 0.5)
	order := rand.New(rand.NewSource(seed)).Perm(n)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	d.Labels = make([]int, n)
	for rank, idx := range order {
		if rank < agree || d.Classes < 2 {
			d.Labels[idx] = preds[idx]
			continue
		}
		// A wrong label, uniform over the other classes.
		off := 1 + rng.Intn(d.Classes-1)
		d.Labels[idx] = (preds[idx] + off) % d.Classes
	}
	return nil
}

// Accuracy returns the fraction (percent) of predictions matching the
// planted labels.
func (d *Dataset) Accuracy(preds []int) (float64, error) {
	if d.Labels == nil {
		return 0, fmt.Errorf("models: dataset %q has no planted labels", d.Name)
	}
	if len(preds) != len(d.Labels) {
		return 0, fmt.Errorf("models: %d predictions for %d labels", len(preds), len(d.Labels))
	}
	if len(preds) == 0 {
		return 0, fmt.Errorf("models: empty dataset")
	}
	correct := 0
	for i, p := range preds {
		if p == d.Labels[i] {
			correct++
		}
	}
	return 100 * float64(correct) / float64(len(preds)), nil
}

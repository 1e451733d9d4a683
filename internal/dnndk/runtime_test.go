package dnndk

import (
	"testing"

	"fpgauv/internal/board"
	"fpgauv/internal/models"
)

// refRig loads a tiny kernel for reference-cache tests.
func refRig(t *testing.T) *Task {
	t.Helper()
	brd := board.MustNew(board.SampleB)
	rt, err := NewRuntime(brd, 3)
	if err != nil {
		t.Fatal(err)
	}
	bench, err := models.New("VGGNet", models.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	k, err := Quantize(bench, DefaultQuantizeOptions())
	if err != nil {
		t.Fatal(err)
	}
	task, err := rt.LoadKernel(k)
	if err != nil {
		t.Fatal(err)
	}
	return task
}

// TestRefKeyIsContentDerived is the regression for the %p cache key: a
// freed dataset and a new one allocated at the same address could alias
// reference-cache entries. The key must be derived from the dataset's
// identity and content, so same-name same-length datasets with different
// inputs get distinct keys, while an identical re-made dataset (the
// crash/re-deploy path) shares its key — and therefore the cached pass.
func TestRefKeyIsContentDerived(t *testing.T) {
	task := refRig(t)
	bench, _ := models.New("VGGNet", models.Tiny)

	a := bench.MakeDataset(8, 1)
	b := bench.MakeDataset(8, 2) // same name, same length, different content
	if ka, kb := task.refKey(a), task.refKey(b); ka == kb {
		t.Fatalf("distinct-content datasets share store key %+v", ka)
	}
	remade := bench.MakeDataset(8, 1)
	if remade == a {
		t.Fatal("test needs two distinct allocations")
	}
	if ka, kr := task.refKey(a), task.refKey(remade); ka != kr {
		t.Fatalf("identical datasets key differently: %+v vs %+v", ka, kr)
	}

	// Behavioral check: predictions cached for A must not be served for
	// B. The two datasets differ in content, so their fault-free
	// predictions (computed independently) almost surely differ — and
	// with a content-derived key the cache cannot conflate them even if
	// the allocator reuses A's address for B.
	pa, err := task.ReferencePreds(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := task.ReferencePreds(b)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range pa {
		if pa[i] != pb[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different datasets returned identical reference predictions; cache aliased")
	}

	// The re-made identical dataset hits A's cached entry.
	pr, err := task.ReferencePreds(remade)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pa {
		if pa[i] != pr[i] {
			t.Fatalf("identical dataset missed the cache: preds[%d] %d != %d", i, pr[i], pa[i])
		}
	}
}

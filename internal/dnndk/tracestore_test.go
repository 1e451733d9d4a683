package dnndk

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"fpgauv/internal/board"
	"fpgauv/internal/dpu"
	"fpgauv/internal/models"
)

// loadOn quantizes a fresh copy of a Tiny benchmark, dense or 50 %
// block-pruned on the sparse backend, and loads it on a new runtime on
// the given sample.
func loadOn(t *testing.T, sample board.SampleID, name string, sparse bool) *Task {
	t.Helper()
	rt, err := NewRuntime(board.MustNew(sample), 3)
	if err != nil {
		t.Fatal(err)
	}
	bench, err := models.New(name, models.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultQuantizeOptions()
	if sparse {
		opts.Sparsity, opts.PruneBlocks, opts.Backend = 0.5, true, dpu.BackendSparse
	}
	k, err := Quantize(bench, opts)
	if err != nil {
		t.Fatal(err)
	}
	task, err := rt.LoadKernel(k)
	if err != nil {
		t.Fatal(err)
	}
	return task
}

// freshTraces records the dataset's golden run on the task's accelerator
// without the store.
func freshTraces(t *testing.T, task *Task, ds *models.Dataset) []*dpu.Trace {
	t.Helper()
	var out []*dpu.Trace
	for lo := 0; lo < ds.Len(); lo += MicroBatch {
		batch, err := task.rt.dp.TraceBatch(nil, task.Kernel, ds.Inputs[lo:min(lo+MicroBatch, ds.Len())])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, batch...)
	}
	return out
}

// faultyPasses classifies the dataset at two seeds at the first VCCINT
// step below 600 mV where the passes sample MAC faults, so they replay
// the task's golden run, and returns the rail to nominal.
func faultyPasses(t *testing.T, task *Task, ds *models.Dataset) {
	t.Helper()
	rt := task.rt
	defer setVCCINT(t, rt, 850)
	for mv := 600.0; mv > 500; mv -= 5 {
		setVCCINT(t, rt, mv)
		var faults int64
		for seed := int64(1); seed <= 2; seed++ {
			res, err := task.ClassifyWith(nil, ds, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("%s at %.0f mV: %v", task.Kernel.Name, mv, err)
			}
			faults += res.MACFaults
		}
		if faults > 0 {
			return
		}
	}
	t.Fatalf("%s: no MAC faults above 500 mV", task.Kernel.Name)
}

// TestTraceStoreServesFreshTraces: on every benchmark, dense and 50 %
// block-pruned, two boards that load separately quantized copies of one
// kernel share one golden run, which equals a fresh recording on the
// second board element for element — before and after faulty passes on
// both boards replay it.
func TestTraceStoreServesFreshTraces(t *testing.T) {
	for _, name := range models.Names() {
		for _, sparse := range []bool{false, true} {
			a := loadOn(t, board.SampleA, name, sparse)
			b := loadOn(t, board.SampleB, name, sparse)
			bench, _ := models.New(name, models.Tiny)
			dsA, dsB := bench.MakeDataset(20, 3), bench.MakeDataset(20, 3)
			got, err := a.reference(dsA)
			if err != nil {
				t.Fatal(err)
			}
			shared, err := b.reference(dsB)
			if err != nil {
				t.Fatal(err)
			}
			if &shared[0] != &got[0] || storeRefs(b.refKey(dsB)) != 2 {
				t.Fatalf("%s sparse=%v: the second board did not share the first board's golden run", name, sparse)
			}
			want := freshTraces(t, b, dsB)
			check := func(when string) {
				for i := range want {
					if !reflect.DeepEqual(shared[i], want[i]) {
						t.Fatalf("%s sparse=%v %s: image %d: store trace differs from a fresh recording", name, sparse, when, i)
					}
				}
			}
			check("as recorded")
			faultyPasses(t, a, dsA)
			faultyPasses(t, b, dsB)
			check("after replaying passes")
			for _, task := range []*Task{a, b} {
				if err := task.Unload(); err != nil {
					t.Fatal(err)
				}
			}
			if n := storeRefs(b.refKey(dsB)); n != 0 {
				t.Fatalf("%s sparse=%v: %d references left after both unloads", name, sparse, n)
			}
		}
	}
}

// TestTraceStoreConcurrentMissRecordsOnce: four boards ask for the same
// golden run at once; one records it and the other three wait for that
// recording, so all four read one set of traces. The last Unload frees
// it.
func TestTraceStoreConcurrentMissRecordsOnce(t *testing.T) {
	const boards = 4
	tasks := make([]*Task, boards)
	for i := range tasks {
		tasks[i] = loadOn(t, board.SampleID(i%3), "VGGNet", false)
	}
	bench, _ := models.New("VGGNet", models.Tiny)
	ds := bench.MakeDataset(6, 77)
	key := tasks[0].refKey(ds) // memoizes the fingerprint before the goroutines read it
	got := make([][]*dpu.Trace, boards)
	errs := make([]error, boards)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range tasks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = tasks[i].reference(ds)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range tasks {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if &got[i][0] != &got[0][0] {
			t.Fatalf("board %d read its own recording", i)
		}
	}
	if n := storeRefs(key); n != boards {
		t.Fatalf("%d references, want %d", n, boards)
	}
	for i, task := range tasks {
		if err := task.Unload(); err != nil {
			t.Fatal(err)
		}
		if n, want := storeRefs(key), boards-1-i; n != want {
			t.Fatalf("after %d unloads: %d references, want %d", i+1, n, want)
		}
	}
}

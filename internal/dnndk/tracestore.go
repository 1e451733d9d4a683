package dnndk

import (
	"fmt"
	"math"

	"fpgauv/internal/dpu"
	"fpgauv/internal/models"
)

// A golden run is a pure function of the kernel as loaded and of the
// dataset's inputs, and the boards of a pool (or the samples of a sweep)
// load byte-identical kernels. So golden runs live in one process-wide
// store, not per runtime: each is recorded once, by the first task that
// asks for it, and shared read-only (dpu.Trace is immutable) by every
// task that loads the same kernel and asks for the same dataset. A task
// holds one reference per entry it has read; Unload — or the garbage
// collector, for a task that is dropped without one — releases them, and
// the last release frees the entry.

// traceKey identifies one golden run: the kernel as LoadKernel found it,
// before any pass could flip a BRAM byte, and the dataset by content.
type traceKey struct {
	kernel, backend string
	bits            int
	kernelFP        uint64 // kernelFingerprint
	ds              string
	n               int
	dsFP            uint64
}

// traceEntry is one golden run in the store.
type traceEntry = shared[traceKey, []*dpu.Trace]

var traceStore = newSharedStore[traceKey, []*dpu.Trace]()

// refKey identifies the task's golden run on the dataset. The dataset
// part is its content fingerprint, never its address: a freed dataset and
// a new one allocated at the same address must not alias store entries
// (and a re-made identical dataset may share them).
func (t *Task) refKey(ds *models.Dataset) traceKey {
	key := t.golden
	key.ds, key.n, key.dsFP = ds.Name, ds.Len(), ds.Fingerprint()
	return key
}

// reference returns the kernel's golden run on the dataset. The first
// ask for a key records it on this task's accelerator, micro-batch by
// micro-batch; a concurrent ask for the same key waits for that
// recording instead of making its own.
func (t *Task) reference(ds *models.Dataset) ([]*dpu.Trace, error) {
	key := t.refKey(ds)
	for _, e := range t.held {
		if e.key == key {
			return e.val, nil
		}
	}
	e, err := traceStore.acquire(key, func() ([]*dpu.Trace, error) { return t.record(ds) })
	if err != nil {
		return nil, err
	}
	t.held = append(t.held, e)
	return e.val, nil
}

// record makes a new entry's golden run.
func (t *Task) record(ds *models.Dataset) ([]*dpu.Trace, error) {
	out := make([]*dpu.Trace, 0, ds.Len())
	scratch := dpu.NewScratch() // one arena for the whole reference pass
	for lo := 0; lo < ds.Len(); lo += MicroBatch {
		batch, err := t.rt.dp.TraceBatch(scratch, t.Kernel, ds.Inputs[lo:min(lo+MicroBatch, ds.Len())])
		if err != nil {
			return nil, fmt.Errorf("dnndk: reference inference: %w", err)
		}
		out = append(out, batch...)
	}
	return out, nil
}

// release drops every store reference the task holds: its golden runs
// and its compiled kernel.
func (t *Task) release() {
	for _, e := range t.held {
		e.release()
	}
	t.held = nil
	if t.compiled != nil {
		t.compiled.release()
		t.compiled = nil
	}
}

// TraceStoreHeld reports how many store entries key on a dataset with
// content fingerprint dsFP, and the references they hold in all.
func TraceStoreHeld(dsFP uint64) (entries, refs int) {
	return traceStore.held(func(key traceKey) bool { return key.dsFP == dsFP })
}

// kernelFingerprint is the 64-bit FNV-1a hash of everything calibration
// and weight quantization decide: the input scale, every node's
// activation, accumulator and weight scale bits, and every WQ and bias
// byte (a sparse kernel's packed image is derived from its WQ).
func kernelFingerprint(k *dpu.Kernel) uint64 {
	h := uint64(14695981039346656037)
	const prime = 1099511628211
	put32 := func(v uint32) {
		for i := 0; i < 32; i += 8 {
			h = (h ^ uint64(byte(v>>i))) * prime
		}
	}
	put32(math.Float32bits(k.InScale))
	for _, kn := range k.Nodes {
		put32(math.Float32bits(kn.OutScale))
		put32(math.Float32bits(kn.AccScale))
		if kn.WQ == nil {
			continue
		}
		put32(math.Float32bits(kn.WQ.Scale))
		for _, v := range kn.WQ.Data {
			h = (h ^ uint64(uint8(v))) * prime
		}
		for _, v := range kn.BiasQ {
			put32(uint32(v))
		}
	}
	return h
}

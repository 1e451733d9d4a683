package dnndk

import (
	"slices"
	"sync"
	"testing"

	"fpgauv/internal/board"
	"fpgauv/internal/dpu"
	"fpgauv/internal/models"
)

// storeKey is the kernel-store key of a Tiny benchmark with the default
// quantize options, dense or 50 % block-pruned on the sparse backend.
func storeKey(name string, sparse bool) compileKey {
	opts := DefaultQuantizeOptions()
	if sparse {
		opts.Sparsity, opts.PruneBlocks, opts.Backend = 0.5, true, dpu.BackendSparse
	}
	return compileKey{bench: name, preset: models.Tiny, opts: opts}
}

// kernelRefs reports the references the kernel store holds on key's
// entry (0: no entry).
func kernelRefs(key compileKey) int {
	_, refs := kernelStore.held(func(k compileKey) bool { return k == key })
	return refs
}

// deployKey deploys key's kernel on a new runtime on the given sample.
func deployKey(t *testing.T, sample board.SampleID, key compileKey) *Deployed {
	t.Helper()
	rt, err := NewRuntime(board.MustNew(sample), 3)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(rt, key.bench, key.preset, key.opts, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// bramImages lists a kernel's BRAM-resident weight bytes: every WQ and,
// on a sparse kernel, every packed image.
func bramImages(k *dpu.Kernel) [][]int8 {
	var out [][]int8
	for _, kn := range k.Nodes {
		if kn.WQ != nil {
			out = append(out, kn.WQ.Data)
		}
		if kn.SW != nil {
			out = append(out, kn.SW.Packed.Data)
		}
	}
	return out
}

func cloneImages(imgs [][]int8) [][]int8 {
	out := make([][]int8, len(imgs))
	for i, b := range imgs {
		out[i] = slices.Clone(b)
	}
	return out
}

func sameImages(a, b [][]int8) bool {
	return slices.EqualFunc(a, b, func(x, y []int8) bool { return slices.Equal(x, y) })
}

// TestKernelStoreDeploysDoNotAlias: two deployments of one entry, dense
// and sparse. Flipping bytes in one's BRAM images and changing its
// VulnScale leaves the other deployment's bytes, fingerprint and
// VulnScale, and the entry's own bytes, as they were; the read-only
// parts are shared.
func TestKernelStoreDeploysDoNotAlias(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		key := storeKey("VGGNet", sparse)
		a := deployKey(t, board.SampleA, key)
		b := deployKey(t, board.SampleB, key)
		entry := a.Task.compiled
		if entry == nil || b.Task.compiled != entry || kernelRefs(key) != 2 {
			t.Fatalf("sparse=%v: the deployments do not share one store entry", sparse)
		}
		ka, kb, kt := a.Task.Kernel, b.Task.Kernel, entry.val.kernel
		if ka == kb || ka == kt || &ka.Nodes[0] == &kb.Nodes[0] {
			t.Fatalf("sparse=%v: the deployments share a kernel or its Nodes", sparse)
		}
		if ka.Graph != kb.Graph || a.Bench != b.Bench || ka.Program.Instrs[0] != kb.Program.Instrs[0] {
			t.Fatalf("sparse=%v: the read-only half is not shared", sparse)
		}
		for i := range ka.Nodes {
			if ka.Nodes[i].BiasQ != nil && &ka.Nodes[i].BiasQ[0] != &kb.Nodes[i].BiasQ[0] {
				t.Fatalf("sparse=%v: node %d: BiasQ is copied", sparse, i)
			}
			if sw := ka.Nodes[i].SW; sw != nil && &sw.Bitmap[0] != &kb.Nodes[i].SW.Bitmap[0] {
				t.Fatalf("sparse=%v: node %d: the sparse bitmap is copied", sparse, i)
			}
		}
		perNode := 1
		if sparse {
			perNode = 2 // WQ and the packed image
		}
		if got, want := len(bramImages(ka)), perNode*countWeightNodes(ka); got != want {
			t.Fatalf("sparse=%v: %d BRAM images, want %d", sparse, got, want)
		}
		wantB, wantT := cloneImages(bramImages(kb)), cloneImages(bramImages(kt))
		fpB, vulnB, vulnT := kernelFingerprint(kb), kb.VulnScale, kt.VulnScale

		for _, img := range bramImages(ka) {
			for i := range img {
				img[i] ^= 0x5a
			}
		}
		ka.VulnScale = 7

		if !sameImages(bramImages(kb), wantB) || kernelFingerprint(kb) != fpB || kb.VulnScale != vulnB {
			t.Fatalf("sparse=%v: flipping one deployment changed the other", sparse)
		}
		if !sameImages(bramImages(kt), wantT) || kt.VulnScale != vulnT {
			t.Fatalf("sparse=%v: flipping one deployment changed the store entry", sparse)
		}
		if kernelFingerprint(ka) == fpB {
			t.Fatalf("sparse=%v: the flips did not reach the flipped deployment", sparse)
		}
		for _, dep := range []*Deployed{a, b} {
			if err := dep.Task.Unload(); err != nil {
				t.Fatal(err)
			}
		}
		if n := kernelRefs(key); n != 0 {
			t.Fatalf("sparse=%v: %d references left after both unloads", sparse, n)
		}
	}
}

// countWeightNodes counts a kernel's conv/FC nodes.
func countWeightNodes(k *dpu.Kernel) int {
	n := 0
	for _, kn := range k.Nodes {
		if kn.WQ != nil {
			n++
		}
	}
	return n
}

// TestKernelStoreConcurrentMissCompilesOnce: four boards deploy the same
// kernel at once; one compiles it and the other three wait for that
// compile, so all four share one float benchmark and graph. The last
// Unload frees the entry.
func TestKernelStoreConcurrentMissCompilesOnce(t *testing.T) {
	const boards = 4
	key := storeKey("AlexNet", false)
	if n := kernelRefs(key); n != 0 {
		t.Fatalf("%d references before the first deploy: the test would not miss", n)
	}
	deps := make([]*Deployed, boards)
	errs := make([]error, boards)
	rts := make([]*Runtime, boards)
	for i := range rts {
		rt, err := NewRuntime(board.MustNew(board.SampleID(i%3)), 3)
		if err != nil {
			t.Fatal(err)
		}
		rts[i] = rt
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range rts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			deps[i], errs[i] = Deploy(rts[i], key.bench, key.preset, key.opts, 6, 77)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range deps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if deps[i].Bench != deps[0].Bench || deps[i].Task.Kernel.Graph != deps[0].Task.Kernel.Graph {
			t.Fatalf("board %d compiled its own kernel", i)
		}
	}
	if n := kernelRefs(key); n != boards {
		t.Fatalf("%d references, want %d", n, boards)
	}
	for i, dep := range deps {
		if err := dep.Task.Unload(); err != nil {
			t.Fatal(err)
		}
		if n, want := kernelRefs(key), boards-1-i; n != want {
			t.Fatalf("after %d unloads: %d references, want %d", i+1, n, want)
		}
	}
}

// TestKernelStoreReloadKeepsReference: a reloaded task takes its own
// reference, so unloading the task it replaced keeps the entry, and a
// deploy after the last Unload compiles afresh.
func TestKernelStoreReloadKeepsReference(t *testing.T) {
	key := storeKey("ResNet50", false)
	dep := deployKey(t, board.SampleC, key)
	again, err := dep.Task.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if again.Kernel != dep.Task.Kernel || kernelRefs(key) != 2 {
		t.Fatalf("reload: same kernel %v, %d references; want the same kernel and 2", again.Kernel == dep.Task.Kernel, kernelRefs(key))
	}
	if err := dep.Task.Unload(); err != nil {
		t.Fatal(err)
	}
	if n := kernelRefs(key); n != 1 {
		t.Fatalf("after the old task's Unload: %d references, want 1", n)
	}
	if err := again.Unload(); err != nil {
		t.Fatal(err)
	}
	if n := kernelRefs(key); n != 0 {
		t.Fatalf("after the last Unload: %d references, want 0", n)
	}
	fresh := deployKey(t, board.SampleC, key)
	defer fresh.Task.Unload()
	if fresh.Bench == dep.Bench {
		t.Fatal("a deploy after the last release read the freed entry")
	}
}

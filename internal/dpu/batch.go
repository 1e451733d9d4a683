package dpu

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"fpgauv/internal/ecc"
	"fpgauv/internal/fabric"
	"fpgauv/internal/nn"
	"fpgauv/internal/quant"
	"fpgauv/internal/tensor"
)

// This file is the executor: one accelerator pass classifies a
// micro-batch of images (a lone image is the batch of one). The
// micro-batch is cut into lanes of laneImages images (single images
// when the pairs would not cover the pool) that the host's executors
// claim one at a time, each lane advancing its images in layer
// lockstep: per layer, a lane's frames stack into a single multi-RHS
// GEMM (an FC layer is a GEMM over the lane). BRAM weight faults are
// flipped ONCE per pass and restored after it — the paper-faithful
// persistence semantics (a voltage-induced BRAM bit flip physically
// persists until scrub/reboot, so every image of a pass observes the
// same corrupted weights), which also keeps flip/restore off the
// per-image hot path and makes the parallel lanes safe: the shared
// weight tensors are immutable while the lanes run.

// batchArena is the Scratch's pass-level state. All of it is arena-owned
// and reused across passes, so a warm steady-state pass performs
// near-zero heap allocations.
type batchArena struct {
	imgs []*Scratch // per-image sub-arenas (index = image ordinal)
	res  []Result   // per-image staged results
	// lanes is the free list of stacked GEMM buffer sets. An executor
	// holds one set per lane it runs, so an arena grows as many sets as
	// executors have ever run one of its passes at once — not one per
	// lane — and the set just released, still warm in that executor's
	// cache, is the next one taken.
	lanes []*batchLane
	// flips are the pass's BRAM weight-corruption records, undone
	// newest-first by restoreBatchWeights.
	flips []byteRestore
	rngs  []*rand.Rand // pooled per-image fault streams for callers
	mu    sync.Mutex   // guards lanes and err while the lanes run
	err   error
}

// batchLane holds a running lane's stacked frame/accumulator buffers
// and its batched-input gather table.
type batchLane struct {
	col []int8
	acc []int32
	xs  []*quant.QTensor
}

// byteRestore records one corrupted weight byte by its prior value: a
// SECDED miscorrection rewrites bits the fault never touched, so restore
// is by value, not by XOR, and one record type serves the protected and
// unprotected paths alike.
type byteRestore struct {
	w   *quant.QTensor
	idx int32
	old int8
}

// takeLane pops a buffer set off the free list, making one when every
// existing set is held by a running lane.
func (ba *batchArena) takeLane() *batchLane {
	ba.mu.Lock()
	defer ba.mu.Unlock()
	if n := len(ba.lanes); n > 0 {
		ln := ba.lanes[n-1]
		ba.lanes = ba.lanes[:n-1]
		return ln
	}
	return &batchLane{}
}

func (ba *batchArena) releaseLane(ln *batchLane) {
	ba.mu.Lock()
	ba.lanes = append(ba.lanes, ln)
	ba.mu.Unlock()
}

// arena returns the pass-level state, creating it on first use.
func (s *Scratch) arena() *batchArena {
	if s.batch == nil {
		s.batch = &batchArena{}
	}
	return s.batch
}

// batchBind readies the arena for a batch of n images.
func (s *Scratch) batchBind(n int) *batchArena {
	ba := s.arena()
	for len(ba.imgs) < n {
		ba.imgs = append(ba.imgs, NewScratch())
	}
	if cap(ba.res) < n {
		ba.res = make([]Result, n)
	}
	ba.res = ba.res[:n]
	ba.err = nil
	return ba
}

// BatchRNGs returns n arena-pooled fault-stream generators for a batched
// run. Callers seed each generator (rngs[i].Seed(...)) before passing the
// slice to RunBatch; pooling them in the arena keeps the steady-state
// serving path allocation-free.
func (s *Scratch) BatchRNGs(n int) []*rand.Rand {
	ba := s.arena()
	for len(ba.rngs) < n {
		ba.rngs = append(ba.rngs, rand.New(rand.NewSource(0)))
	}
	return ba.rngs[:n]
}

// RunBatch executes one micro-batch at the board's present electrical
// conditions, injecting timing faults per the fabric model, and returns
// one Result per image. It returns board.ErrHung if the board is (or
// becomes) crashed. rngs[i] drives image i's MAC-fault stream, so image
// i of an N-batch is bit-exact with a batch of one fed the same stream.
// BRAM flips are sampled once per weight layer per pass from rngs[0] and
// persist across the whole batch (restored before returning); each
// image's Result reports the pass's flip count — the faults its pass
// observed.
//
// A Kernel must not be executed by two concurrent passes: BRAM fault
// injection applies flips to the shared weight tensors, so concurrent
// calls on the same kernel would observe each other's flips. Every
// execution path in this module already serializes per kernel (the
// fleet's member lock; the single-goroutine campaigns and runtimes,
// whose reference cache has the same confinement rule). Within one pass
// the lanes do share the kernel across goroutines — that is
// safe because the flips are applied before the lanes start and the
// weights are immutable while they run.
//
// The returned Results (and their Probs tensors) are staged in the
// Scratch and only valid until the next run on it. A nil Scratch
// allocates a transient arena and returns detached results.
func (d *DPU) RunBatch(s *Scratch, k *Kernel, imgs []*tensor.Tensor, rngs []*rand.Rand) ([]Result, error) {
	if err := d.brd.CheckAlive(); err != nil {
		return nil, err
	}
	cond := d.brd.Conditions()
	cond.Stress = k.Workload.Stress
	fab := d.brd.Fabric()
	pMAC := fab.MACFaultProb(cond) * k.VulnScale
	if pMAC > 0.5 {
		pMAC = 0.5
	}
	pBRAM := fab.BRAMBitFaultProb(cond)
	start := time.Now()
	res, err := d.runBatch(s, k, imgs, rngs, pMAC, pBRAM)
	if err != nil {
		return nil, err
	}
	// A fault storm near Vcrash can also hang the board mid-batch.
	if err := d.brd.CheckAlive(); err != nil {
		return nil, err
	}
	elapsed := time.Since(start).Nanoseconds()
	for i := range res {
		res[i].ExecNS = elapsed
	}
	return res, nil
}

// RunWith classifies one image as the batch of one, staging the
// one-element batch in the Scratch so a warm arena allocates nothing. A
// nil Scratch allocates a transient arena.
func (d *DPU) RunWith(s *Scratch, k *Kernel, img *tensor.Tensor, rng *rand.Rand) (*Result, error) {
	if s == nil {
		s = NewScratch()
	}
	s.oneImg[0], s.oneRng[0] = img, rng
	res, err := d.RunBatch(s, k, s.oneImg[:], s.oneRng[:])
	s.oneImg[0], s.oneRng[0] = nil, nil
	if err != nil {
		return nil, err
	}
	return &res[0], nil
}

// RunBatchClean executes a micro-batch with fault injection disabled and
// without consulting the board's electrical state — the fault-free
// reference path used to plant ground-truth labels.
func (d *DPU) RunBatchClean(s *Scratch, k *Kernel, imgs []*tensor.Tensor) ([]Result, error) {
	return d.runBatch(s, k, imgs, nil, 0, 0)
}

// runBatch is the execution core. rngs may be nil only when both fault
// probabilities are zero.
func (d *DPU) runBatch(s *Scratch, k *Kernel, imgs []*tensor.Tensor, rngs []*rand.Rand, pMAC, pBRAM float64) ([]Result, error) {
	n := len(imgs)
	if n == 0 {
		return nil, nil
	}
	if rngs != nil && len(rngs) < n {
		return nil, fmt.Errorf("dpu: %d fault streams for %d images", len(rngs), n)
	}
	if (pMAC > 0 || pBRAM > 0) && rngs == nil {
		return nil, fmt.Errorf("dpu: fault injection requires per-image fault streams")
	}
	detached := false
	if s == nil {
		s = NewScratch()
		detached = true
	}
	w := quant.Workers()
	per, lanes := laneSplit(n, w)
	ba := s.batchBind(n)

	// Persistent faults: flip once per pass, before the lanes start, so
	// the shared weight tensors are immutable while the batch runs.
	var batchFlips int64
	var batchECC ecc.Counts
	if pBRAM > 0 {
		batchFlips, batchECC = d.flipBatchWeights(ba, k, pBRAM, rngs[0])
	}

	// One level of parallelism per pass. The lanes go to the tile pool's
	// executors (quant.RunTiles: the caller plus whichever helpers are
	// free claim lanes from a cursor, so any pool width balances and an
	// oversubscribed box degrades to a serial loop). Once the lanes alone
	// cover the pool their GEMMs stay on the lane's goroutine; only a
	// pass with fewer lanes than executors — the lone image — fans its
	// GEMM macro-tiles out instead. Each image's fault stream is its own
	// rng and its accumulator block is the batch of one's whatever lane
	// it rides in, so results are identical at every pool width and
	// every split. A single lane runs inline.
	fan := lanes < w
	if lanes == 1 {
		d.runBatchLane(ba, k, imgs, rngs, 0, n, pMAC, fan)
	} else {
		lj := laneJobs.Get().(*laneJob)
		lj.d, lj.ba, lj.k = d, ba, k
		lj.imgs, lj.rngs = imgs, rngs
		lj.pMAC, lj.fan, lj.per = pMAC, fan, per
		quant.RunTiles(lanes, lj)
	}

	d.restoreBatchWeights(ba)
	if ba.err != nil {
		return nil, ba.err
	}
	for i := range ba.res {
		ba.res[i].BRAMFaults += batchFlips
		ba.res[i].ECC.Add(batchECC)
	}
	if detached {
		out := make([]Result, n)
		copy(out, ba.res)
		for i := range out {
			out[i].Probs = out[i].Probs.Clone()
		}
		return out, nil
	}
	return ba.res, nil
}

// laneImages is the lane width: the images one executor advances in
// lockstep per claim. Two is the block kernel's column pair — an FC
// layer's columns are the lane's images, so a lane of one runs the
// two-lane step half empty and streams the FC weights once per image —
// and per-image time is flat from there to 16, so wider lanes would only
// coarsen the split (16 images are 8 claims: 4+4 on two executors, 3+3+2
// on three).
const laneImages = 2

// laneSplit cuts an n-image pass for a pool of w executors: lanes of
// laneImages images, or — when that many pairs would leave executors
// idle (two images on two executors) — of one image each. It returns the
// images per lane and the lane count.
func laneSplit(n, w int) (per, lanes int) {
	per = laneImages
	if (n+per-1)/per < w {
		per = 1
	}
	return per, (n + per - 1) / per
}

// laneJob is the pooled work descriptor that fans a batch's lanes out
// over the shared quant worker pool: tile index c is lane c, serving
// images [c*per, (c+1)*per) of the batch. Lanes are a property of the
// host — how the pass is cut for the executors that exist — and
// unrelated to DPU.Cores(), which parameterizes only the GOPs and power
// models. Lanes write disjoint arena state (per-image sub-arenas and
// result slots, the GEMM buffer set each holds while it runs); the
// shared weight tensors are immutable while the lanes run.
type laneJob struct {
	quant.TileJob
	d    *DPU
	ba   *batchArena
	k    *Kernel
	imgs []*tensor.Tensor
	rngs []*rand.Rand
	pMAC float64
	fan  bool
	per  int
}

var laneJobs = sync.Pool{New: func() any { return new(laneJob) }}

func (lj *laneJob) Job() *quant.TileJob { return &lj.TileJob }

func (lj *laneJob) Recycle() {
	lj.d, lj.ba, lj.k, lj.imgs, lj.rngs = nil, nil, nil, nil, nil
	laneJobs.Put(lj)
}

func (lj *laneJob) Tile(c int) {
	lo := c * lj.per
	hi := min(lo+lj.per, len(lj.imgs))
	lj.d.runBatchLane(lj.ba, lj.k, lj.imgs, lj.rngs, lo, hi, lj.pMAC, lj.fan)
}

// runBatchLane advances images [lo, hi) through the graph in layer
// lockstep: conv/FC nodes run as one stacked GEMM over the lane's
// sub-batch, every other node runs per image through the shared host-op
// executor; fan lets those GEMMs use the tile pool. Errors are recorded
// on the arena (first one wins).
func (d *DPU) runBatchLane(ba *batchArena, k *Kernel, imgs []*tensor.Tensor, rngs []*rand.Rand, lo, hi int, pMAC float64, fan bool) {
	fail := func(err error) {
		ba.mu.Lock()
		if ba.err == nil {
			ba.err = err
		}
		ba.mu.Unlock()
	}
	ln := ba.takeLane()
	defer ba.releaseLane(ln)
	for i := lo; i < hi; i++ {
		sc := ba.imgs[i]
		sc.bind(k)
		ba.res[i] = Result{}
		if err := quant.QuantizeWithScaleInto(&sc.inQ, imgs[i], k.InScale, k.Bits); err != nil {
			fail(fmt.Errorf("dpu: input quantization: %w", err))
			return
		}
	}
	nodes := ba.imgs[lo].nodes
	for idx, n := range nodes {
		kn := &k.Nodes[idx]
		switch n.Op.(type) {
		case *nn.Conv2D, *nn.Dense:
			if err := d.runBatchWeightLayer(ba, ln, idx, n, kn, k, rngs, lo, hi, pMAC, fan); err != nil {
				fail(err)
				return
			}
		default:
			for i := lo; i < hi; i++ {
				if err := d.runHostNode(ba.imgs[i], idx, n, kn, k); err != nil {
					fail(err)
					return
				}
			}
		}
	}
	for i := lo; i < hi; i++ {
		if err := finishRun(ba.imgs[i], k, &ba.res[i]); err != nil {
			fail(err)
			return
		}
	}
}

// runBatchWeightLayer executes one conv/FC node for a lane's sub-batch
// on the kernel's compute backend: one stacked multi-RHS GEMM (dense or
// sparse; the naive oracle loops the images into the same block
// layout), then per-image MAC-fault injection on the int32 accumulators
// and the fused requantize(+ReLU) epilogue. Injection and epilogue are
// shared by every backend, and each image's accumulator block has the
// naive kernels' layout whatever the batch size, so the oracle and
// engine paths — and the batch of one and of N — cannot drift apart.
func (d *DPU) runBatchWeightLayer(ba *batchArena, ln *batchLane, idx int, n nn.Node, kn *KernelNode, k *Kernel, rngs []*rand.Rand, lo, hi int, pMAC float64, fan bool) error {
	nb := hi - lo
	if cap(ln.xs) < nb {
		ln.xs = make([]*quant.QTensor, nb)
	}
	xs := ln.xs[:nb]
	for b := 0; b < nb; b++ {
		x, err := ba.imgs[lo+b].fetch(n.Inputs[0])
		if err != nil {
			return err
		}
		xs[b] = x
	}

	be := d.backendFor()
	var blockLen, nd int
	var dims [3]int
	switch op := n.Op.(type) {
	case *nn.Conv2D:
		sh, err := be.ConvBatch(kn, xs, op.Stride, op.Pad, &ln.col, &ln.acc, fan)
		if err != nil {
			return fmt.Errorf("dpu: node %q: %w", n.Label, err)
		}
		blockLen = sh.AccLen()
		dims = [3]int{sh.OutC, sh.OutH, sh.OutW}
		nd = 3
	case *nn.Dense:
		width, err := be.DenseBatch(kn, xs, &ln.acc, fan)
		if err != nil {
			return fmt.Errorf("dpu: node %q: %w", n.Label, err)
		}
		blockLen = width
		dims[0] = width
		nd = 1
	}

	for b := 0; b < nb; b++ {
		i := lo + b
		sc := ba.imgs[i]
		block := ln.acc[b*blockLen : (b+1)*blockLen]
		var rng *rand.Rand
		if rngs != nil {
			rng = rngs[i]
		}
		ba.res[i].MACFaults += injectMACFaults(block, kn.MACs, pMAC, rng)
		out := sc.act(idx)
		relu := sc.fuseReLU[idx] >= 0
		if err := quant.RequantizeInto(out, block, kn.AccScale, kn.OutScale, k.Bits, relu, dims[:nd]...); err != nil {
			return err
		}
		sc.refs[idx] = out
	}
	return nil
}

// flipBatchWeights applies the pass's persistent BRAM faults: per weight
// layer, in node order, faults are sampled and applied in place on the
// shared BRAM-resident images (the packed image on the sparse backend)
// and every changed byte is recorded for restoreBatchWeights.
// Unprotected, each fault flips one independent bit; under an enabled
// SECDED policy faults are sampled per 64-bit word and routed through
// the codec (eccflip.go). It returns the pass's raw flipped-bit count —
// the physical fault rate is the same either way — and the SECDED
// outcome split (zero when unprotected).
func (d *DPU) flipBatchWeights(ba *batchArena, k *Kernel, pBit float64, rng *rand.Rand) (total int64, counts ecc.Counts) {
	ba.flips = ba.flips[:0]
	protected := d.prot.Enabled()
	for i := range k.Nodes {
		w := d.bramImage(&k.Nodes[i])
		if w == nil {
			continue
		}
		if protected {
			raw, c := applyProtectedFaults(d.prot, w, pBit, rng, func(idx int32, old int8) {
				ba.flips = append(ba.flips, byteRestore{w: w, idx: idx, old: old})
			})
			total += raw
			counts.Add(c)
			continue
		}
		bits := int64(len(w.Data)) * int64(w.Bits)
		kk := fabric.SampleFaults(rng, bits, pBit)
		for f := int64(0); f < kk; f++ {
			idx := rng.Intn(len(w.Data))
			bit := uint8(rng.Intn(w.Bits))
			ba.flips = append(ba.flips, byteRestore{w: w, idx: int32(idx), old: w.Data[idx]})
			w.Data[idx] ^= 1 << bit
		}
		total += kk
	}
	return total, counts
}

// restoreBatchWeights undoes the pass's corruption newest-first, so
// overlapping writes to one byte or word unwind to the original codes.
func (d *DPU) restoreBatchWeights(ba *batchArena) {
	for i := len(ba.flips) - 1; i >= 0; i-- {
		f := ba.flips[i]
		f.w.Data[f.idx] = f.old
	}
	ba.flips = ba.flips[:0]
}

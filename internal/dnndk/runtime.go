package dnndk

import (
	"fmt"
	"math/rand"

	"fpgauv/internal/board"
	"fpgauv/internal/dpu"
	"fpgauv/internal/ecc"
	"fpgauv/internal/models"
	"fpgauv/internal/tensor"
)

// Runtime is the N2Cube-style host runtime: it owns the DPU cores on a
// board, stages kernel weights in DDR, runs classification tasks, and
// caches fault-free reference predictions (the basis of the planted-label
// accuracy protocol).
type Runtime struct {
	brd *board.ZCU102
	dp  *dpu.DPU
	// refCache maps kernel+dataset identity to fault-free predictions.
	refCache map[string][]int
	loads    int
}

// NewRuntime programs nCores B4096 cores (the paper's baseline is 3) and
// returns the runtime.
func NewRuntime(brd *board.ZCU102, nCores int) (*Runtime, error) {
	return NewRuntimeConfig(brd, dpu.B4096(), nCores)
}

// NewRuntimeConfig is NewRuntime with an explicit core variant — the
// hook through which deployment-level tuning (e.g. the GEMM worker-pool
// width in Config.GemmWorkers) reaches the accelerator.
func NewRuntimeConfig(brd *board.ZCU102, cfg dpu.Config, nCores int) (*Runtime, error) {
	dp, err := dpu.New(brd, cfg, nCores)
	if err != nil {
		return nil, err
	}
	return &Runtime{brd: brd, dp: dp, refCache: make(map[string][]int)}, nil
}

// Board returns the underlying board.
func (r *Runtime) Board() *board.ZCU102 { return r.brd }

// DPU returns the programmed accelerator.
func (r *Runtime) DPU() *dpu.DPU { return r.dp }

// Task is a loaded kernel ready to classify.
type Task struct {
	rt     *Runtime
	Kernel *dpu.Kernel
	ddrKey string
}

// LoadKernel validates the kernel, stages its weights in DDR and installs
// the workload descriptor on the board.
func (r *Runtime) LoadKernel(k *dpu.Kernel) (*Task, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	r.loads++
	key := fmt.Sprintf("%s#%d@%d", k.Name, k.Bits, r.loads)
	size := int(k.Program.WeightBytes)
	if size <= 0 {
		size = 1
	}
	base, err := r.brd.DDR().Alloc(key, size)
	if err != nil {
		return nil, fmt.Errorf("dnndk: staging weights: %w", err)
	}
	// Stream the quantized weights into DDR (the loader's job); the
	// content matters for DDR accounting, not for execution, which
	// reads the kernel's own tensors.
	off := 0
	for _, kn := range k.Nodes {
		if kn.WQ == nil {
			continue
		}
		chunk := make([]byte, len(kn.WQ.Data))
		for i, v := range kn.WQ.Data {
			chunk[i] = byte(v)
		}
		if off+len(chunk) > size {
			chunk = chunk[:size-off]
		}
		if len(chunk) == 0 {
			break
		}
		if err := r.brd.DDR().Write(base, off, chunk); err != nil {
			return nil, err
		}
		off += len(chunk)
	}
	r.brd.SetWorkload(k.Workload)
	return &Task{rt: r, Kernel: k, ddrKey: key}, nil
}

// Unload frees the task's DDR staging area.
func (t *Task) Unload() error {
	return t.rt.brd.DDR().Free(t.ddrKey)
}

// Board returns the board the task's kernel is loaded on.
func (t *Task) Board() *board.ZCU102 { return t.rt.brd }

// DPU returns the accelerator the task's kernel is loaded on — the
// handle mitigation strategies and the fleet use to reach the BRAM
// SECDED policy.
func (t *Task) DPU() *dpu.DPU { return t.rt.dp }

// Run classifies one image at the present board conditions.
func (t *Task) Run(img *tensor.Tensor, rng *rand.Rand) (*dpu.Result, error) {
	return t.RunWith(nil, img, rng)
}

// RunWith is Run through a caller-owned Scratch arena: the batch of one
// on the same executor as InferBatch, allocation-free on a warm arena.
// The returned Result and its Probs tensor are staged in the arena and
// only valid until the next run on it.
func (t *Task) RunWith(s *dpu.Scratch, img *tensor.Tensor, rng *rand.Rand) (*dpu.Result, error) {
	t.rt.brd.SetWorkload(t.Kernel.Workload)
	return t.rt.dp.RunWith(s, t.Kernel, img, rng)
}

// MicroBatch is the default accelerator-pass size: eval-set passes (and
// the fleet's inference jobs, by default) are sliced into micro-batches
// of this many images, each executed as one batched pass with BRAM
// faults persistent across it.
const MicroBatch = 16

// InferBatch classifies one micro-batch of caller images in a single
// batched accelerator pass, returning one Result per image. rngs[i] is
// image i's fault stream (see dpu.RunBatch for the batch fault
// contract). Results are staged in the Scratch and valid until the next
// run on it.
func (t *Task) InferBatch(s *dpu.Scratch, imgs []*tensor.Tensor, rngs []*rand.Rand) ([]dpu.Result, error) {
	t.rt.brd.SetWorkload(t.Kernel.Workload)
	return t.rt.dp.RunBatch(s, t.Kernel, imgs, rngs)
}

// refKey identifies a kernel+dataset pair for the reference cache. The
// dataset part is its content fingerprint, never its address: a freed
// dataset and a new one allocated at the same address must not alias
// cache entries (and a re-made identical dataset may share them).
func (t *Task) refKey(ds *models.Dataset) string {
	return fmt.Sprintf("%s/%s#%d:%016x", t.ddrKey, ds.Name, ds.Len(), ds.Fingerprint())
}

// ReferencePreds returns the kernel's fault-free predictions on the
// dataset, computing and caching them on first use. These are the
// predictions used to plant ground-truth labels at the Table 1 accuracy.
// The pass runs on the batched executor, micro-batch by micro-batch.
func (t *Task) ReferencePreds(ds *models.Dataset) ([]int, error) {
	key := t.refKey(ds)
	if preds, ok := t.rt.refCache[key]; ok {
		return preds, nil
	}
	preds := make([]int, ds.Len())
	scratch := dpu.NewScratch() // one arena for the whole reference pass
	for lo := 0; lo < ds.Len(); lo += MicroBatch {
		hi := lo + MicroBatch
		if hi > ds.Len() {
			hi = ds.Len()
		}
		results, err := t.rt.dp.RunBatchClean(scratch, t.Kernel, ds.Inputs[lo:hi])
		if err != nil {
			return nil, fmt.Errorf("dnndk: reference inference: %w", err)
		}
		for i := range results {
			preds[lo+i] = results[i].Pred
		}
	}
	t.rt.refCache[key] = preds
	return preds, nil
}

// PlantLabels plants the dataset's ground-truth labels so the fault-free
// accuracy equals targetAccPct (the Table 1 "our design @Vnom" value).
func (t *Task) PlantLabels(ds *models.Dataset, targetAccPct float64, seed int64) error {
	preds, err := t.ReferencePreds(ds)
	if err != nil {
		return err
	}
	return ds.PlantLabels(preds, targetAccPct, seed)
}

// ClassifyResult aggregates one dataset pass.
type ClassifyResult struct {
	Preds       []int
	AccuracyPct float64
	MACFaults   int64
	BRAMFaults  int64
	// ECC is the pass's SECDED outcome split (zero when the DPU has no
	// enabled protection). Micro-batch persistence means each batch's
	// split is reported once here, not once per image.
	ECC ecc.Counts
	// ExecNS sums the device time of the pass's micro-batches in
	// nanoseconds (zero on the cached fault-free reference path) —
	// execute-attempt spans report it alongside their wall time.
	ExecNS int64
}

// Classify runs the dataset at the present board conditions and scores
// accuracy against the planted labels. When the electrical conditions are
// fault-free the cached reference predictions are reused, which makes
// guardband-region sweep points (no faults by definition) cheap.
func (t *Task) Classify(ds *models.Dataset, rng *rand.Rand) (*ClassifyResult, error) {
	return t.ClassifyWith(nil, ds, rng)
}

// ClassifyWith is Classify through a caller-owned Scratch arena: the
// fleet's per-board workers and the sweep campaigns pass their own so a
// steady-state evaluation pass performs near-zero heap allocations. A nil
// Scratch allocates a transient arena for the pass.
//
// The faulty-region pass runs on the batched executor: the evaluation set
// is one big batch sliced into micro-batches, per-image MAC fault streams
// derived from rng (one Int63 draw per image, so a pinned rng still pins
// the whole pass), and BRAM faults persistent per micro-batch.
func (t *Task) ClassifyWith(s *dpu.Scratch, ds *models.Dataset, rng *rand.Rand) (*ClassifyResult, error) {
	if err := t.rt.brd.CheckAlive(); err != nil {
		return nil, err
	}
	t.rt.brd.SetWorkload(t.Kernel.Workload)

	cond := t.rt.brd.Conditions()
	cond.Stress = t.Kernel.Workload.Stress
	fab := t.rt.brd.Fabric()
	out := &ClassifyResult{}

	if fab.MACFaultProb(cond) == 0 && fab.BRAMBitFaultProb(cond) == 0 {
		preds, err := t.ReferencePreds(ds)
		if err != nil {
			return nil, err
		}
		out.Preds = append([]int(nil), preds...)
	} else {
		if s == nil {
			s = dpu.NewScratch()
		}
		n := ds.Len()
		out.Preds = make([]int, n)
		rngs := s.BatchRNGs(n)
		for i := range rngs[:n] {
			rngs[i].Seed(rng.Int63())
		}
		for lo := 0; lo < n; lo += MicroBatch {
			hi := lo + MicroBatch
			if hi > n {
				hi = n
			}
			results, err := t.InferBatch(s, ds.Inputs[lo:hi], rngs[lo:hi])
			if err != nil {
				return nil, err
			}
			for i := range results {
				out.Preds[lo+i] = results[i].Pred
				out.MACFaults += results[i].MACFaults
				out.BRAMFaults += results[i].BRAMFaults
			}
			if len(results) > 0 {
				// Every image of a micro-batch carries the batch's shared
				// outcome split and pass time; count each once.
				out.ECC.Add(results[0].ECC)
				out.ExecNS += results[0].ExecNS
			}
		}
	}

	if ds.Labels != nil {
		acc, err := ds.Accuracy(out.Preds)
		if err != nil {
			return nil, err
		}
		out.AccuracyPct = acc
	}
	return out, nil
}

// Profile reports the modeled performance and measured power of the task
// at the present board conditions.
type Profile struct {
	GOPs       float64
	ImageTimeS float64
	PowerW     float64
	GOPsPerW   float64
}

// Profile evaluates the task's throughput/power at the present operating
// point.
func (t *Task) Profile() Profile {
	t.rt.brd.SetWorkload(t.Kernel.Workload)
	f := t.rt.brd.FrequencyMHz()
	gops := t.Kernel.GOPs(t.rt.dp.Cores(), f)
	pw := t.rt.brd.PowerBreakdown().TotalW
	p := Profile{
		GOPs:       gops,
		ImageTimeS: t.Kernel.ImageTimeS(f),
		PowerW:     pw,
	}
	if pw > 0 {
		p.GOPsPerW = gops / pw
	}
	return p
}

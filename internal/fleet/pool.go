// Package fleet scales the paper's single-board methodology to a pool of
// reduced-voltage accelerators. The paper (§8) characterizes three
// "identical" ZCU102 samples and finds per-board Vmin/Vcrash variability;
// fleet treats that variability as an operations problem: each board is
// characterized once, parked at its own energy-efficient point inside the
// guardband, and served classification traffic through a shared work
// queue with crash detection, automatic reboot/re-deploy, and retry — so
// an induced crash below Vcrash costs availability on one board, never a
// request.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"fpgauv/internal/board"
	"fpgauv/internal/dnndk"
	"fpgauv/internal/dpu"
	"fpgauv/internal/ecc"
	"fpgauv/internal/nn"
	"fpgauv/internal/obs"
	"fpgauv/internal/silicon"
	"fpgauv/internal/telemetry"
	"fpgauv/internal/tensor"
)

// ErrClosed is returned by Classify after Close has begun.
var ErrClosed = errors.New("fleet: pool is shut down")

// errAbandoned aborts a multi-micro-batch job whose caller canceled
// mid-flight; the worker's canceled check turns it into a skip, never a
// requeue.
var errAbandoned = errors.New("fleet: caller abandoned the job")

// Config sizes and parameterizes a pool.
type Config struct {
	// Name labels the pool. When set, board ids are prefixed with it
	// ("pool1/platform-A#0"), keeping ids unique across a multi-pool
	// cluster. Empty (the default) keeps the historical single-pool ids.
	Name string
	// Boards is the pool size (default 3 — one of each silicon sample).
	// Boards cycle through the paper's three samples: board i is
	// sample i mod 3.
	Boards int
	// MaxQueue bounds the shared work queue: once MaxQueue jobs are
	// backlogged, Classify/Infer shed with ErrSaturated instead of
	// queuing. 0 (the default) keeps the historical unbounded behavior.
	// Requeues after a crash are never bounded — the no-lost-work
	// guarantee outranks the admission limit.
	MaxQueue int
	// Benchmark is the Table 1 workload every board serves
	// (default "VGGNet").
	Benchmark string
	// Tiny selects the test-scale model zoo (default: the Small preset).
	Tiny bool
	// Bits is the quantization precision (default 8).
	Bits int
	// Sparsity applies unstructured DECENT pruning before quantization.
	Sparsity float64
	// PruneSparsity, when non-zero, replaces Sparsity with
	// block-structured pruning at this fraction: whole sparse skip
	// blocks are zeroed, so the realized block sparsity the sparse
	// backend can elide equals the requested fraction (the
	// `-prune-sparsity` serving flag).
	PruneSparsity float64
	// SparseBackend selects the compute backend kernels deploy on:
	// "" or "auto" picks per kernel by realized block sparsity at
	// quantization time, "dense" / "sparse" force one (the
	// `-sparse-backend` serving flag).
	SparseBackend string
	// Images is the evaluation-set size classified per request
	// (default 32).
	Images int
	// Seed derives datasets, planted labels and fault streams
	// (default 1).
	Seed int64
	// MarginMV is the headroom held above each board's measured Vmin
	// (default 10 mV): the operating point is Vmin+MarginMV, inside the
	// guardband, fault-free, and far below nominal.
	MarginMV float64
	// TargetMV overrides the automatic operating point when non-zero.
	TargetMV float64
	// CharStepMV is the characterization sweep step (default 5 mV).
	CharStepMV float64
	// CharRepeats is the repeats per characterization point (default 2).
	CharRepeats int
	// MaxAttempts bounds how many boards a single request may visit
	// before failing (default 3). Each visit already includes one
	// reboot-and-retry on the same board.
	MaxAttempts int
	// MicroBatch is the accelerator-pass size for inference jobs: caller
	// batches are sliced into micro-batches of this many images, each
	// run as one batched pass with per-micro-batch crash retry
	// (default dnndk.MicroBatch).
	MicroBatch int
	// MonitorInterval is the health-probe period for idle boards
	// (default 50 ms; negative disables the monitor).
	MonitorInterval time.Duration
	// Cores is the DPU core count per board (default 3, the paper's
	// baseline).
	Cores int
	// GemmWorkers pins the process-wide GEMM tile worker pool shared by
	// the compute engine's macro-tiles and the batch executor's lanes
	// (quant.SetWorkers); 0 keeps the GOMAXPROCS-aware automatic
	// default. The pool is global, so the value from the most recently
	// built pool wins.
	GemmWorkers int
	// Governor tunes the per-board adaptive voltage loops (see
	// GovernorConfig). The zero value builds the loops disabled at the
	// default cadence; set Governor.Enabled to start them active.
	Governor GovernorConfig
	// ECC parameterizes BRAM SECDED protection and frame scrubbing (see
	// ECCConfig). The zero value assembles the subsystem disabled with
	// the default scrub cadence.
	ECC ECCConfig
	// EventCap bounds the fleet event journal: the ring retains the most
	// recent EventCap structured events (default 4096). The journal is
	// always assembled — event emission is off the request hot path and
	// costs nothing when nobody reads it.
	EventCap int
	// Telemetry sizes the per-board time-series recorder, the health
	// scorer and the crash flight recorder (see telemetry.Config). The
	// zero value samples every board at the default 50ms interval; set
	// Telemetry.Interval negative to disable the background sampler
	// (tests drive SampleTelemetry explicitly).
	Telemetry telemetry.Config
}

// sanitize fills config defaults.
func (c Config) sanitize() Config {
	if c.Boards <= 0 {
		c.Boards = 3
	}
	if c.Benchmark == "" {
		c.Benchmark = "VGGNet"
	}
	if c.Images <= 0 {
		c.Images = 32
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MarginMV <= 0 {
		c.MarginMV = 10
	}
	if c.CharStepMV <= 0 {
		c.CharStepMV = 5
	}
	if c.CharRepeats <= 0 {
		c.CharRepeats = 2
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.MicroBatch <= 0 {
		c.MicroBatch = dnndk.MicroBatch
	}
	if c.MonitorInterval == 0 {
		c.MonitorInterval = 50 * time.Millisecond
	}
	if c.Cores <= 0 {
		c.Cores = 3
	}
	if c.EventCap <= 0 {
		c.EventCap = 4096
	}
	c.Governor = c.Governor.sanitize()
	c.ECC = c.ECC.sanitize()
	c.Telemetry = c.Telemetry.Sanitize()
	return c
}

// Request is one classification job: a full pass over the deployment's
// evaluation set.
type Request struct {
	// Seed derives the fault-injection stream for this pass; 0 draws a
	// fresh deterministic seed from the pool's sequence.
	Seed int64
	// Span, when non-nil, is the caller's trace node for this job: the
	// pool records queue-wait, per-board execute attempts and requeues
	// as its children. Nil (the default) records nothing and costs
	// nothing.
	Span *obs.Span `json:"-"`
}

// Result reports one served request.
type Result struct {
	// Board is the serving board's id ("platform-B#1").
	Board string `json:"board"`
	// VCCINTmV is the rail level the request ran at.
	VCCINTmV float64 `json:"vccint_mv"`
	// Images is the number of images classified.
	Images int `json:"images"`
	// AccuracyPct is the classification accuracy of the pass.
	AccuracyPct float64 `json:"accuracy_pct"`
	// MACFaults and BRAMFaults count injected fault events (zero inside
	// the guardband).
	MACFaults  int64 `json:"mac_faults"`
	BRAMFaults int64 `json:"bram_faults"`
	// ECC is the pass's SECDED outcome split (all-zero when protection
	// is disabled).
	ECC ecc.Counts `json:"ecc"`
	// Attempts is how many board visits the request needed (>1 means a
	// crash/reboot cycle happened underneath it).
	Attempts int `json:"attempts"`
}

// InferRequest is one inference job: caller-supplied images classified
// individually, batched into shared accelerator passes by the pool.
type InferRequest struct {
	// Images are CHW float tensors matching the pool's input shape.
	Images []*tensor.Tensor
	// Seed derives the per-image fault-injection streams; 0 draws a
	// fresh deterministic seed from the pool's sequence.
	Seed int64
	// Span, when non-nil, is the caller's trace node for this job (see
	// Request.Span).
	Span *obs.Span `json:"-"`
}

// InferOutput is one image's classification.
type InferOutput struct {
	// Pred is the argmax class.
	Pred int `json:"pred"`
	// Probs is the host-side softmax output.
	Probs []float32 `json:"probs"`
}

// InferResult reports one served inference job.
type InferResult struct {
	// Board is the board that completed the job (micro-batches may have
	// run on earlier boards before a crash handed the job over).
	Board string `json:"board"`
	// VCCINTmV is the completing board's rail level.
	VCCINTmV float64 `json:"vccint_mv"`
	// Outputs is one entry per submitted image, in order.
	Outputs []InferOutput `json:"outputs"`
	// MicroBatches is how many accelerator passes the job took.
	MicroBatches int `json:"micro_batches"`
	// MACFaults and BRAMFaults count injected fault events observed by
	// the job (zero inside the guardband).
	MACFaults  int64 `json:"mac_faults"`
	BRAMFaults int64 `json:"bram_faults"`
	// ECC is the job's SECDED outcome split (all-zero when protection
	// is disabled).
	ECC ecc.Counts `json:"ecc"`
	// Attempts is how many board visits the job needed (>1 means a
	// crash/reboot cycle happened underneath it).
	Attempts int `json:"attempts"`
}

// jobKind discriminates the pool's two job kinds.
type jobKind int

const (
	// jobEval is a full evaluation-set pass (the characterization and
	// accuracy-scoring workload).
	jobEval jobKind = iota
	// jobInfer carries caller images for per-image classification.
	jobInfer
)

// job is a queued request with its completion channel.
type job struct {
	kind     jobKind
	req      Request      // eval payload
	inf      InferRequest // infer payload
	attempts int
	// Inference progress, persistent across board visits: a crash only
	// costs the in-flight micro-batch, completed micro-batches keep
	// their outputs when the job is handed to another board.
	outs         []InferOutput
	completed    int
	microBatches int
	macF, bramF  int64
	eccC         ecc.Counts
	// canceled is set when the submitting caller abandons the wait:
	// workers skip the job instead of burning an accelerator pass
	// for a caller that is gone.
	canceled atomic.Bool
	done     chan jobOut
	// span is the caller's trace node (nil when untraced); wait is the
	// open fleet-queue-wait span of the current board visit, ended by
	// the worker that pops the job and re-created per requeue.
	span *obs.Span
	wait *obs.Span
	// lastBoard is the board that failed the job's previous visit; the
	// queue hands such a job to a different board when one is idle.
	lastBoard string
}

type jobOut struct {
	res Result
	inf InferResult
	err error
}

// Pool owns N simulated boards and schedules classification requests
// across them.
type Pool struct {
	cfg     Config
	members []*member
	queue   *workQueue
	gov     *governor
	eccSt   eccState
	journal *obs.Journal

	// telem is the pool's time-series recorder (boards + pool aggregate
	// pseudo-board), telemCfg its sanitized config. synthCorr and
	// synthStampNS are sampler-owned state for the injected corrected-ECC
	// ramp (single sampling goroutine; no lock). jobLatency is the pool's
	// job-latency quantile digest (lock-free; workers observe, readers
	// snapshot).
	telem        *telemetry.Recorder
	telemCfg     telemetry.Config
	synthCorr    []float64
	synthStampNS int64
	jobLatency   telemetry.Digest

	wg      sync.WaitGroup
	stop    chan struct{}
	closing atomic.Bool
	closed  sync.Once
	// admit fences Classify's check-then-push against Close: pushes
	// hold the read side, Close takes the write side after setting
	// closing, so no job can slip into the queue once the drain begins.
	admit sync.RWMutex

	seq      atomic.Int64
	requeues atomic.Int64
	rejected atomic.Int64
	failed   atomic.Int64
	canceled atomic.Int64
	shed     atomic.Int64
	inFlight atomic.Int64
	// svcNS is a smoothed per-job service time (EWMA, nanoseconds) —
	// the drain-rate estimate behind ErrSaturated.RetryAfter. Updated
	// with plain load/store: a lost update under contention only costs
	// smoothing accuracy on a hint.
	svcNS atomic.Int64
	macF  atomic.Int64
	bramF atomic.Int64
	// Per-kind traffic counters. Kept separately (instead of deriving
	// one split from totals) so every exported figure is individually
	// monotonic: a derived difference can transiently dip when a
	// snapshot lands between a worker's two increments.
	evalReqs     atomic.Int64
	evalServed   atomic.Int64
	inferReqs    atomic.Int64
	inferServed  atomic.Int64
	inferImages  atomic.Int64
	microBatches atomic.Int64
	// satErrs interns shed errors so a saturated pool refuses work
	// without allocating (see SatErrCache).
	satErrs SatErrCache
}

// New assembles, deploys, characterizes and starts a pool. On return
// every board is held at its underscaled operating point and the workers
// and health monitor are running.
func New(cfg Config) (*Pool, error) {
	cfg = cfg.sanitize()
	p := &Pool{
		cfg:     cfg,
		queue:   newWorkQueue(),
		stop:    make(chan struct{}),
		journal: obs.NewJournal(cfg.EventCap),
	}
	for i := 0; i < cfg.Boards; i++ {
		m, err := newMember(i, cfg)
		if err != nil {
			return nil, err
		}
		m.jr = p.journal
		p.members = append(p.members, m)
	}
	for _, m := range p.members {
		p.wg.Add(1)
		go p.worker(m)
	}
	if cfg.MonitorInterval > 0 {
		p.wg.Add(1)
		go p.monitor(cfg.MonitorInterval)
	}
	p.startGovernor(cfg.Governor)
	p.startScrubbers(cfg.ECC)
	p.startTelemetry(cfg.Telemetry)
	return p, nil
}

// Size returns the number of boards. Part of the Scheduler surface.
func (p *Pool) Size() int { return len(p.members) }

// Benchmark returns the workload the pool serves.
func (p *Pool) Benchmark() string { return p.cfg.Benchmark }

// Name returns the pool's configured label ("pool" when unnamed).
func (p *Pool) Name() string {
	if p.cfg.Name == "" {
		return "pool"
	}
	return p.cfg.Name
}

// QueueDepth is the present backlog: jobs admitted but not yet picked
// up by a worker. Part of the Scheduler admission surface.
func (p *Pool) QueueDepth() int { return p.queue.Len() }

// InFlight is the number of jobs currently executing on boards.
func (p *Pool) InFlight() int { return int(p.inFlight.Load()) }

// Pools returns the pool itself: a *Pool is the one-pool Scheduler.
func (p *Pool) Pools() []*Pool { return []*Pool{p} }

// QuiescentBoards reports how many of the pool's boards have settled
// voltage control — the SLO routing signal for latency-sensitive
// traffic. A board counts as quiescent when its governor loop is
// disabled (static rails never move mid-request) or has settled at a
// verified operating point.
func (p *Pool) QuiescentBoards() (settled, total int) {
	total = len(p.members)
	enabled := p.gov != nil && p.gov.enabled.Load()
	for _, m := range p.members {
		if !enabled || m.gov == nil || m.gov.settledFlag.Load() {
			settled++
		}
	}
	return settled, total
}

// OperatingPowerW estimates the pool's present accelerator power: the
// sum over boards of the silicon power model evaluated at each board's
// live rails. The bulk-traffic routing cost signal — cheaper pools
// (settled deeper into the guardband) attract eval passes.
func (p *Pool) OperatingPowerW() float64 {
	var w float64
	for _, m := range p.members {
		w += m.brd.PowerBreakdownAtRails(m.opMV(), m.bramOpMV()).TotalW
	}
	return w
}

// Classify enqueues one evaluation-set pass and blocks until a board
// serves it, the context is canceled, or the pool is closed.
func (p *Pool) Classify(ctx context.Context, req Request) (Result, error) {
	if err := p.quickShed(); err != nil {
		return Result{}, err
	}
	if req.Seed == 0 {
		req.Seed = p.cfg.Seed + p.seq.Add(1)*7919
	}
	out, err := p.submit(ctx, &job{req: req, span: req.Span, done: make(chan jobOut, 1)})
	return out.res, err
}

// quickShed is the allocation-free admission pre-check: when the
// backlog is already at its bound, refuse with the interned shed error
// before the caller's job struct and done channel are even built. A
// saturated scheduler sees mostly refusals, so the refusal path must
// stay off the heap. The check is advisory — a losing race just falls
// through to submit's authoritative bounded TryPush. Skipped while
// closing so ErrClosed keeps precedence over ErrSaturated.
func (p *Pool) quickShed() error {
	if p.cfg.MaxQueue <= 0 || p.closing.Load() {
		return nil
	}
	if depth := p.queue.Len(); depth >= p.cfg.MaxQueue {
		p.shed.Add(1)
		return p.saturatedErr(depth)
	}
	return nil
}

// InputShape returns the CHW geometry inference images must have.
func (p *Pool) InputShape() nn.Shape {
	return p.members[0].bench.InputShape
}

// Infer enqueues one inference job (per-image classification of caller
// images) and blocks until a board serves it, the context is canceled,
// or the pool is closed. The job is executed micro-batch by micro-batch
// with crash retry at micro-batch granularity: a crash costs only the
// in-flight micro-batch, never already-classified images.
func (p *Pool) Infer(ctx context.Context, req InferRequest) (InferResult, error) {
	if len(req.Images) == 0 {
		return InferResult{}, fmt.Errorf("fleet: inference request carries no images")
	}
	shape := p.InputShape()
	want := shape.C * shape.H * shape.W
	for i, img := range req.Images {
		if img == nil || img.Size() != want {
			return InferResult{}, fmt.Errorf("fleet: image %d does not match input shape %dx%dx%d",
				i, shape.C, shape.H, shape.W)
		}
	}
	if err := p.quickShed(); err != nil {
		return InferResult{}, err
	}
	if req.Seed == 0 {
		req.Seed = p.cfg.Seed + p.seq.Add(1)*7919
	}
	j := &job{
		kind: jobInfer,
		inf:  req,
		span: req.Span,
		outs: make([]InferOutput, len(req.Images)),
		done: make(chan jobOut, 1),
	}
	out, err := p.submit(ctx, j)
	return out.inf, err
}

// submit runs the shared admission/wait protocol for one job.
func (p *Pool) submit(ctx context.Context, j *job) (jobOut, error) {
	p.admit.RLock()
	if p.closing.Load() {
		p.admit.RUnlock()
		p.rejected.Add(1)
		return jobOut{}, ErrClosed
	}
	// The wait span must exist before the push: a worker may pop the job
	// immediately and end it.
	j.wait = j.span.Child(obs.StageFleetWait)
	depth, ok := p.queue.TryPush(j, p.cfg.MaxQueue)
	if !ok {
		p.admit.RUnlock()
		j.wait.End()
		p.shed.Add(1)
		return jobOut{}, p.saturatedErr(depth)
	}
	if j.kind == jobInfer {
		p.inferReqs.Add(1)
	} else {
		p.evalReqs.Add(1)
	}
	p.admit.RUnlock()
	select {
	case out := <-j.done:
		return out, out.err
	case <-ctx.Done():
		// Mark the abandoned job so a worker that later pops it skips
		// it instead of spending accelerator passes (and a served-count
		// increment) on a caller that is gone.
		j.canceled.Store(true)
		return jobOut{}, ctx.Err()
	}
}

// worker serially serves queued jobs on one board until the queue is
// closed and drained.
func (p *Pool) worker(m *member) {
	defer p.wg.Done()
	for {
		j, ok := p.queue.Pop(m.id)
		if !ok {
			return
		}
		j.wait.End()
		if j.canceled.Load() {
			p.canceled.Add(1)
			continue
		}
		j.attempts++
		p.inFlight.Add(1)
		start := time.Now()
		var out jobOut
		var err error
		switch j.kind {
		case jobInfer:
			out.inf, err = p.serveInferOn(m, j)
			if err == nil {
				p.inferServed.Add(1)
				p.inferImages.Add(int64(len(out.inf.Outputs)))
				p.macF.Add(out.inf.MACFaults)
				p.bramF.Add(out.inf.BRAMFaults)
			}
		default:
			out.res, err = p.serveOn(m, j)
			if err == nil {
				p.evalServed.Add(1)
				p.macF.Add(out.res.MACFaults)
				p.bramF.Add(out.res.BRAMFaults)
			}
		}
		p.inFlight.Add(-1)
		if err == nil {
			// Fold the visit into the smoothed service time (α = 1/8).
			dur := time.Since(start).Nanoseconds()
			old := p.svcNS.Load()
			if old == 0 {
				p.svcNS.Store(dur)
			} else {
				p.svcNS.Store(old + (dur-old)/8)
			}
			p.jobLatency.Observe(float64(dur) / 1e9)
		}
		if err == nil {
			j.done <- out
			continue
		}
		// The board failed this job even after its local
		// reboot-and-retry. Hand the job to another board unless the
		// caller is gone, the request has exhausted its visits, or the
		// pool is draining.
		if j.canceled.Load() {
			p.canceled.Add(1)
			continue
		}
		if j.attempts < p.cfg.MaxAttempts && !p.closing.Load() {
			p.requeues.Add(1)
			m.event(obs.EvRequeue, 0, fmt.Sprintf("visit %d failed (%v); handing job to another board", j.attempts, err))
			if rq := j.span.Child(obs.StageRequeue); rq != nil {
				rq.Board = m.id
				rq.Err = err.Error()
				rq.End()
			}
			j.wait = j.span.Child(obs.StageFleetWait)
			j.lastBoard = m.id
			p.queue.Push(j)
			continue
		}
		p.failed.Add(1)
		j.done <- jobOut{err: fmt.Errorf("fleet: request failed after %d attempts: %w", j.attempts, err)}
	}
}

// classifyRNG derives the fault-injection stream for one attempt of one
// request. Attempt ordinal 0 reproduces the request's pinned stream
// exactly — a caller that pins a seed is asking for a specific fault
// stream. Every retry (the local post-crash retry, and each visit to
// another board) salts the stream with the attempt ordinal: replaying
// the exact fault stream that just wrecked a pass would make the retry
// deterministically repeat the failure.
func classifyRNG(seed, attempt int64) *rand.Rand {
	s := seed*6364136223846793005 + 1442695040888963407
	if attempt > 0 {
		s ^= attempt * -0x61c8864680b583eb // golden-ratio odd constant
		s = s*6364136223846793005 + 1442695040888963407
	}
	return rand.New(rand.NewSource(s))
}

// serveOn runs one job on one board, transparently recovering from a
// crash (reboot → re-deploy → restore voltage → retry once).
func (p *Pool) serveOn(m *member, j *job) (Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.activeTrace = j.span.TraceID()
	defer func() { m.activeTrace = "" }()

	if m.brd.Hung() {
		m.noteCrash()
		if err := m.recover(); err != nil {
			return Result{}, err
		}
	}
	for attempt := 0; ; attempt++ {
		// Global attempt ordinal across board visits: each visit gets
		// at most two tries (initial + one local post-crash retry).
		ordinal := int64(j.attempts-1)*2 + int64(attempt)
		exec := j.span.Child(obs.StageExecute)
		if exec != nil {
			exec.Board = m.id
			exec.Attempt = int32(ordinal)
			exec.Images = int32(m.ds.Len())
			exec.Batch = int32(m.ds.Len())
			exec.VCCINTmV = m.brd.VCCINTmV()
			exec.VCCBRAMmV = m.brd.VCCBRAMmV()
		}
		var cr *dnndk.ClassifyResult
		var err error
		if m.takeInjectedFailure() {
			err = board.ErrHung
		} else {
			cr, err = m.task.ClassifyWith(m.scratch, m.ds, classifyRNG(j.req.Seed, ordinal))
		}
		if err == nil {
			if exec != nil {
				exec.MACFaults = cr.MACFaults
				exec.BRAMFaults = cr.BRAMFaults
				exec.ECCCorrected = cr.ECC.Corrected
				exec.ECCDetected = cr.ECC.Detected
				exec.ECCSilent = cr.ECC.Silent
				exec.ExecNS = cr.ExecNS
			}
			exec.End()
			m.served.Add(1)
			m.noteServedFaults(cr.MACFaults, cr.BRAMFaults, cr.ECC)
			return Result{
				Board:       m.id,
				VCCINTmV:    m.brd.VCCINTmV(),
				Images:      m.ds.Len(),
				AccuracyPct: cr.AccuracyPct,
				MACFaults:   cr.MACFaults,
				BRAMFaults:  cr.BRAMFaults,
				ECC:         cr.ECC,
				Attempts:    j.attempts,
			}, nil
		}
		if exec != nil {
			exec.Err = err.Error()
		}
		exec.End()
		if !errors.Is(err, board.ErrHung) || attempt >= 1 {
			return Result{}, err
		}
		m.noteCrash()
		m.retries.Add(1)
		if rerr := m.recover(); rerr != nil {
			return Result{}, rerr
		}
	}
}

// inferSeed derives image img's fault-stream seed for one attempt of one
// inference job. Like classifyRNG, attempt ordinal 0 reproduces the
// job's pinned streams exactly and every retry salts them: replaying the
// exact fault stream that just wrecked a micro-batch would make the
// retry deterministically repeat the failure.
func inferSeed(seed int64, img int, attempt int64) int64 {
	s := seed ^ (int64(img)+1)*-0x61c8864680b583eb // golden-ratio odd constant
	s = s*6364136223846793005 + 1442695040888963407
	if attempt > 0 {
		s ^= attempt * -0x61c8864680b583eb
		s = s*6364136223846793005 + 1442695040888963407
	}
	return s
}

// serveInferOn runs one inference job on one board, micro-batch by
// micro-batch, transparently recovering from a crash (reboot → re-deploy
// → restore voltage → retry the in-flight micro-batch once). Progress is
// kept on the job, so a board that gives up after its local retry hands
// the remaining images — not the whole job — to the next board.
func (p *Pool) serveInferOn(m *member, j *job) (InferResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.activeTrace = j.span.TraceID()
	defer func() { m.activeTrace = "" }()

	if m.brd.Hung() {
		m.noteCrash()
		if err := m.recover(); err != nil {
			return InferResult{}, err
		}
	}
	imgs := j.inf.Images
	for j.completed < len(imgs) {
		// The pop-time canceled check only covers single-pass jobs; a
		// multi-micro-batch job must notice an abandoning caller between
		// passes or the worker burns the rest of the job for nobody.
		if j.canceled.Load() {
			return InferResult{}, errAbandoned
		}
		lo := j.completed
		hi := lo + p.cfg.MicroBatch
		if hi > len(imgs) {
			hi = len(imgs)
		}
		for attempt := 0; ; attempt++ {
			// Global attempt ordinal across board visits: each visit gets
			// at most two tries (initial + one local post-crash retry).
			ordinal := int64(j.attempts-1)*2 + int64(attempt)
			exec := j.span.Child(obs.StageExecute)
			if exec != nil {
				exec.Board = m.id
				exec.Attempt = int32(ordinal)
				exec.Batch = int32(hi - lo)
				exec.VCCINTmV = m.brd.VCCINTmV()
				exec.VCCBRAMmV = m.brd.VCCBRAMmV()
			}
			var results []dpu.Result
			var err error
			if m.takeInjectedFailure() {
				err = board.ErrHung
			} else {
				rngs := m.scratch.BatchRNGs(hi - lo)
				for i := range rngs {
					rngs[i].Seed(inferSeed(j.inf.Seed, lo+i, ordinal))
				}
				results, err = m.task.InferBatch(m.scratch, imgs[lo:hi], rngs)
			}
			if err == nil {
				var mb, bb int64
				for i := range results {
					out := &j.outs[lo+i]
					out.Pred = results[i].Pred
					out.Probs = append(out.Probs[:0], results[i].Probs.Data()...)
					mb += results[i].MACFaults
					bb += results[i].BRAMFaults
				}
				j.macF += mb
				j.bramF += bb
				if len(results) > 0 {
					// Every image of a micro-batch carries the batch's
					// shared outcome split; count each event once.
					j.eccC.Add(results[0].ECC)
					if exec != nil {
						exec.MACFaults = mb
						exec.BRAMFaults = bb
						exec.ECCCorrected = results[0].ECC.Corrected
						exec.ECCDetected = results[0].ECC.Detected
						exec.ECCSilent = results[0].ECC.Silent
						exec.ExecNS = results[0].ExecNS
					}
				}
				exec.End()
				j.microBatches++
				p.microBatches.Add(1)
				j.completed = hi
				break
			}
			if exec != nil {
				exec.Err = err.Error()
			}
			exec.End()
			if !errors.Is(err, board.ErrHung) || attempt >= 1 {
				return InferResult{}, err
			}
			m.noteCrash()
			m.retries.Add(1)
			if rerr := m.recover(); rerr != nil {
				return InferResult{}, rerr
			}
		}
	}
	m.served.Add(1)
	// The completing board absorbs the whole job's fault signal; images
	// served on a pre-crash board are a negligible sliver of traffic.
	m.noteServedFaults(j.macF, j.bramF, j.eccC)
	return InferResult{
		Board:        m.id,
		VCCINTmV:     m.brd.VCCINTmV(),
		Outputs:      j.outs,
		MicroBatches: j.microBatches,
		MACFaults:    j.macF,
		BRAMFaults:   j.bramF,
		ECC:          j.eccC,
		Attempts:     j.attempts,
	}, nil
}

// monitor probes idle boards so a crash is detected and healed even with
// no traffic routed to the board (the paper's host-side liveness check,
// run fleet-wide). A busy board is skipped: its worker handles crashes
// in-line.
func (p *Pool) monitor(interval time.Duration) {
	defer p.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			for _, m := range p.members {
				if !m.mu.TryLock() {
					continue
				}
				if m.brd.CheckAlive() != nil {
					m.noteCrash()
					_ = m.recover()
				}
				m.mu.Unlock()
			}
		}
	}
}

// targets resolves a board index to the members it addresses (idx < 0
// addresses every board).
func (p *Pool) targets(idx int) ([]*member, error) {
	if idx >= len(p.members) {
		return nil, fmt.Errorf("fleet: board %d out of range (pool has %d)", idx, len(p.members))
	}
	if idx >= 0 {
		return p.members[idx : idx+1], nil
	}
	return p.members, nil
}

// SetVCCINTmV commands the VCCINT rail of one board (or every board when
// idx is negative). Setting a level below the board's Vcrash induces a
// crash that the pool detects and heals — the fault-injection knob the
// crash-recovery tests and the /v1/fleet/voltage endpoint use. The rail
// move happens under the member lock, like every other accelerator
// operation: an unlocked move could interleave with a worker's
// classify/recover sequence and land between its reboot and its
// restore-voltage step.
func (p *Pool) SetVCCINTmV(idx int, mv float64) error {
	targets, err := p.targets(idx)
	if err != nil {
		return err
	}
	for _, m := range targets {
		m.mu.Lock()
		err := m.setVCCINT(mv)
		m.mu.Unlock()
		if err != nil {
			return fmt.Errorf("fleet: %s: %w", m.id, err)
		}
		m.event(obs.EvRailVCCINT, mv, "externally commanded rail move")
	}
	return nil
}

// SetOperatingMV re-targets the steady-state operating point of one board
// (or all, idx<0) and applies it immediately. The level must stay above
// the board's measured Vcrash.
func (p *Pool) SetOperatingMV(idx int, mv float64) error {
	targets, err := p.targets(idx)
	if err != nil {
		return err
	}
	for _, m := range targets {
		if mv <= m.regions.VcrashMV {
			return fmt.Errorf("fleet: %s: %.0f mV is at/below Vcrash %.0f mV", m.id, mv, m.regions.VcrashMV)
		}
		m.mu.Lock()
		m.setOpMV(mv)
		if m.gov != nil {
			// A manual re-target re-bases the control loop: the new
			// point is treated as clean and the loop re-seeks from it.
			// The clean level is capped at the governor ceiling (the
			// static startup point) so a re-target above it cannot
			// seed an unverified plunge back down to the ceiling, and
			// floored at the governor floor so a re-target barely
			// above Vcrash cannot make the loop probe below it.
			cfg := p.gov.config()
			clean := math.Min(mv, m.staticMV) - cfg.MarginMV
			if floor := governFloorMV(m, cfg); clean < floor {
				clean = floor
			}
			m.gov.setCleanMV(clean)
			m.gov.cleanStreak, m.gov.verifyFor = 0, 0
			m.gov.unsettle()
		}
		err := m.setVCCINT(mv)
		m.mu.Unlock()
		if err != nil {
			return fmt.Errorf("fleet: %s: %w", m.id, err)
		}
		m.event(obs.EvRailVCCINT, mv, "operating point re-targeted")
	}
	return nil
}

// Journal returns the pool's bounded fleet event journal — the causal
// record behind /v1/fleet/events and uvolt_events_total.
func (p *Pool) Journal() *obs.Journal { return p.journal }

// InjectFailures arms the chaos-testing knob on one board (idx < 0: all
// boards): each of the next n execute attempts there fails exactly as a
// crash does, driving the crash→reboot→redeploy→requeue machinery on
// demand without moving a rail. n <= 0 disarms. Used by recovery tests
// and the tracing walkthrough; harmless in production (it defaults to
// disarmed and only an operator can arm it).
func (p *Pool) InjectFailures(idx, n int) error {
	targets, err := p.targets(idx)
	if err != nil {
		return err
	}
	if n < 0 {
		n = 0
	}
	for _, m := range targets {
		m.failInject.Store(int64(n))
	}
	return nil
}

// HoldTemperatureC pins one board's die temperature (idx < 0 pins all),
// clamped to the fan-achievable [34, 52] °C range — the simulated
// thermal-drift knob governor demos and tests use. The thermal model is
// internally synchronized, so no serving pause is needed.
func (p *Pool) HoldTemperatureC(idx int, tC float64) error {
	targets, err := p.targets(idx)
	if err != nil {
		return err
	}
	for _, m := range targets {
		m.brd.Thermal().HoldTemperature(tC)
	}
	return nil
}

// ReleaseTemperature returns one board (idx < 0: all) to open-loop fan
// control.
func (p *Pool) ReleaseTemperature(idx int) error {
	targets, err := p.targets(idx)
	if err != nil {
		return err
	}
	for _, m := range targets {
		m.brd.Thermal().Release()
	}
	return nil
}

// Close stops admission, drains every queued request, waits for the
// workers and monitor to exit, and returns the boards to nominal rails.
// It is idempotent.
func (p *Pool) Close() {
	p.closed.Do(func() {
		p.closing.Store(true)
		// Wait out any Classify that passed its closing check before
		// the store; after this, no new job can enter the queue.
		p.admit.Lock()
		p.admit.Unlock() //nolint:staticcheck // empty critical section is the fence
		p.queue.Close()
		close(p.stop)
		p.wg.Wait()
		for _, m := range p.members {
			m.mu.Lock()
			_ = m.setVCCINT(silicon.VnomMV)
			_ = m.setVCCBRAM(silicon.VnomMV)
			m.mu.Unlock()
		}
	})
}

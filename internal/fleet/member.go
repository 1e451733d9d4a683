package fleet

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"fpgauv/internal/board"
	"fpgauv/internal/core"
	"fpgauv/internal/dnndk"
	"fpgauv/internal/dpu"
	"fpgauv/internal/ecc"
	"fpgauv/internal/models"
	"fpgauv/internal/obs"
	"fpgauv/internal/pmbus"
	"fpgauv/internal/silicon"
)

// Member states reported by Status.
const (
	stateHealthy int32 = iota
	stateRecovering
)

// member is one board of the pool: a ZCU102 sample with its DNNDK
// runtime, loaded kernel and evaluation dataset. All accelerator
// operations (classify, recover, voltage changes) happen under mu, so the
// runtime and its task are confined to one goroutine at a time.
type member struct {
	mu sync.Mutex

	idx    int
	id     string
	brd    *board.ZCU102
	rt     *dnndk.Runtime
	bench  *models.Benchmark
	kernel *dpu.Kernel
	task   *dnndk.Task
	ds     *models.Dataset
	// scratch is this board's inference arena. Every accelerator pass
	// (serving, governor canaries) happens under mu, so the arena is
	// confined to one goroutine at a time and steady-state classification
	// performs near-zero heap allocations.
	scratch *dpu.Scratch

	regions core.Regions
	// opBits holds the operating point (mV) as float bits so status
	// snapshots can read it without taking the serving lock.
	opBits atomic.Uint64
	// bramOpBits is the VCCBRAM steady-state operating point (mV, float
	// bits). Nominal at startup; only the ECC-aware governor walks it
	// down.
	bramOpBits atomic.Uint64
	// staticMV is the startup operating point (Vmin+margin or the
	// configured target): the governor's ceiling and the baseline its
	// power savings are measured against.
	staticMV float64
	seed     int64

	state    atomic.Int32
	served   atomic.Int64
	retries  atomic.Int64
	crashes  atomic.Int64
	redeploy atomic.Int64
	// servedFaults accumulates MAC fault events observed in served
	// passes since the governor's last tick: the serving-path error
	// signal that forces an immediate VCCINT climb. servedBRAM
	// accumulates the harmful BRAM events (raw flips unprotected,
	// detected+silent words under ECC) that force a VCCBRAM climb.
	servedFaults atomic.Int64
	servedBRAM   atomic.Int64
	// eccReruns counts served passes run again because SECDED flagged
	// an uncorrectable word in them.
	eccReruns atomic.Int64

	// prot is this board's BRAM SECDED policy (installed on the DPU at
	// assembly; per-board so corrected/uncorrectable counters stay
	// per-board) and scrub its frame scrubber over the deployed weight
	// image.
	prot  *ecc.Protection
	scrub *ecc.Scrubber

	// gov is this board's adaptive-voltage control state; nil until the
	// pool starts governor loops.
	gov *memberGov

	// jr is the pool's shared event journal (set at pool assembly; nil
	// only for members built outside a pool, which tests never do —
	// journal methods are nil-safe regardless).
	jr *obs.Journal
	// failInject is the chaos knob: each positive count makes one
	// execute attempt on this board fail exactly as a crash does,
	// driving the crash→reboot→redeploy→requeue machinery on demand
	// without moving a rail. Armed by Pool.InjectFailures.
	failInject atomic.Int64

	// driftBits / injCorrBits are the margin-regression chaos knob
	// (float bits): an injected upward bias on the board's Vmin estimate
	// and a synthesized corrected-ECC rate (words/sec) folded into the
	// telemetry sampler. Armed by Pool.InjectMarginDrift.
	driftBits   atomic.Uint64
	injCorrBits atomic.Uint64
	// healthState is the health scorer's last grade (0 ok, 1 watch,
	// 2 degraded) — the transition latch behind EvHealthDegraded.
	healthState atomic.Int32
	// onCrash is the pool's flight-recorder hook, invoked at the end of
	// noteCrash (every noteCrash call site holds mu). Nil off-pool.
	onCrash func(*member)
	// activeTrace is the trace id of the job currently executing on the
	// board (guarded by mu; empty when idle or untraced) — the crash
	// postmortem's request attribution.
	activeTrace string
}

// regionCache shares one measured characterization per (sample, workload)
// pair across every pool in the process: the paper characterizes each
// board once and reuses the result, and dies of the same sample are
// identical by construction.
var regionCache sync.Map // string -> core.Regions

func regionKey(sample board.SampleID, cfg Config) string {
	return fmt.Sprintf("%d|%s|tiny=%t|bits=%d|sp=%.4f|psp=%.4f|be=%s|img=%d|seed=%d|rep=%d",
		sample, cfg.Benchmark, cfg.Tiny, cfg.Bits, cfg.Sparsity, cfg.PruneSparsity,
		cfg.SparseBackend, cfg.Images, cfg.Seed, cfg.CharRepeats)
}

// newMember assembles board idx (cycling the paper's three silicon
// samples), deploys the configured benchmark, characterizes Vmin/Vcrash
// (or reuses the cached characterization for this sample) and parks the
// board at the energy-efficient operating point inside the guardband.
func newMember(idx int, cfg Config) (*member, error) {
	sample := board.SampleID(idx % 3)
	brd, err := board.New(sample)
	if err != nil {
		return nil, err
	}
	dcfg := dpu.B4096()
	dcfg.GemmWorkers = cfg.GemmWorkers
	dcfg.Backend = cfg.SparseBackend
	rt, err := dnndk.NewRuntimeConfig(brd, dcfg, boardCores)
	if err != nil {
		return nil, err
	}
	id := fmt.Sprintf("%s#%d", sample, idx)
	if cfg.Name != "" {
		// Pool-qualified board ids keep journals, traces and metrics
		// unambiguous when N pools serve behind one router.
		id = cfg.Name + "/" + id
	}
	m := &member{
		idx:     idx,
		id:      id,
		brd:     brd,
		rt:      rt,
		scratch: dpu.NewScratch(),
	}
	if err := m.deploy(cfg); err != nil {
		return nil, fmt.Errorf("fleet: %s: %w", m.id, err)
	}
	if err := m.characterize(cfg); err != nil {
		return nil, fmt.Errorf("fleet: %s: %w", m.id, err)
	}
	op := cfg.TargetMV
	if op == 0 {
		op = m.regions.VminMV + cfg.MarginMV
	}
	if op <= m.regions.VcrashMV {
		return nil, fmt.Errorf("fleet: %s: operating point %.0f mV is below Vcrash %.0f mV",
			m.id, op, m.regions.VcrashMV)
	}
	m.staticMV = op
	m.setOpMV(op)
	if err := m.setVCCINT(op); err != nil {
		return nil, fmt.Errorf("fleet: %s: %w", m.id, err)
	}
	// BRAM SECDED protection: the policy lives on the board's DPU (the
	// executor consults it per pass), the scrubber snapshots the deployed
	// fault-free weight image as its golden copy. VCCBRAM starts at
	// nominal; only the ECC-aware governor walks it down.
	m.prot = ecc.NewProtection(cfg.ECC.Enabled)
	m.rt.DPU().SetProtection(m.prot)
	m.scrub = ecc.NewScrubber(kernelWeights(m.kernel))
	m.setBRAMOpMV(m.brd.VCCBRAMmV())
	return m, nil
}

// kernelWeights collects the kernel's live weight tensors (the protected
// BRAM image). Sparse-backend kernels keep the compacted packed image in
// BRAM — fewer words to protect, so the scrubber's golden copy (and the
// ECC corrected-rate at a given VCCBRAM) shrinks with pruning.
func kernelWeights(k *dpu.Kernel) [][]int8 {
	var out [][]int8
	for i := range k.Nodes {
		kn := &k.Nodes[i]
		if kn.SW != nil {
			out = append(out, kn.SW.Packed.Data)
			continue
		}
		if kn.WQ != nil {
			out = append(out, kn.WQ.Data)
		}
	}
	return out
}

// deploy compiles and loads the benchmark kernel and plants ground-truth
// labels through the shared single-platform deployment protocol.
func (m *member) deploy(cfg Config) error {
	sp, pruneBlocks := cfg.Sparsity, false
	if cfg.PruneSparsity > 0 {
		sp, pruneBlocks = cfg.PruneSparsity, true
	}
	dep, err := dnndk.DeployBenchmark(m.rt, cfg.Benchmark, dnndk.DeployOptions{
		Tiny:        cfg.Tiny,
		Bits:        cfg.Bits,
		Sparsity:    sp,
		PruneBlocks: pruneBlocks,
		Backend:     cfg.SparseBackend,
		Images:      cfg.Images,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return err
	}
	m.bench, m.kernel, m.task, m.ds = dep.Bench, dep.Task.Kernel, dep.Task, dep.Ds
	m.seed = dep.Seed
	return nil
}

// characterize measures (or recalls) this board's Vmin/Vcrash regions.
// A cache miss runs the paper's downward-sweep protocol, which ends in a
// deliberate crash and reboot, leaving the board at nominal rails.
func (m *member) characterize(cfg Config) error {
	key := regionKey(m.brd.Sample(), cfg)
	if v, ok := regionCache.Load(key); ok {
		m.regions = v.(core.Regions)
		return nil
	}
	c := core.NewCampaign(m.task, m.ds)
	c.Config.VStartMV = 620
	c.Config.VStepMV = charStepMV
	c.Config.Repeats = cfg.CharRepeats
	c.Config.Seed = cfg.Seed
	reg, _, err := c.DetectRegions()
	if err != nil {
		return fmt.Errorf("characterize: %w", err)
	}
	regionCache.Store(key, reg)
	m.regions = reg
	return nil
}

// setVCCINT commands the VCCINT rail through the board's PMBus, exactly
// as an external experiment controller would.
func (m *member) setVCCINT(mv float64) error {
	return pmbus.NewAdapter(m.brd.Bus(), board.AddrVCCINT).SetVoltageMV(mv)
}

// setVCCBRAM commands the VCCBRAM rail through the board's PMBus.
func (m *member) setVCCBRAM(mv float64) error {
	return pmbus.NewAdapter(m.brd.Bus(), board.AddrVCCBRAM).SetVoltageMV(mv)
}

// opMV returns the steady-state operating point in millivolts.
func (m *member) opMV() float64 { return math.Float64frombits(m.opBits.Load()) }

// setOpMV re-targets the steady-state operating point.
func (m *member) setOpMV(mv float64) { m.opBits.Store(math.Float64bits(mv)) }

// bramOpMV returns the VCCBRAM steady-state operating point.
func (m *member) bramOpMV() float64 { return math.Float64frombits(m.bramOpBits.Load()) }

// setBRAMOpMV re-targets the VCCBRAM steady-state operating point.
func (m *member) setBRAMOpMV(mv float64) { m.bramOpBits.Store(math.Float64bits(mv)) }

// event appends one structured occurrence for this board to the pool's
// journal (a no-op off-pool: Journal methods are nil-safe).
func (m *member) event(kind string, mv float64, detail string) {
	m.jr.Append(obs.Event{Board: m.id, Kind: kind, MV: mv, Detail: detail})
}

// noteCrash is the single crash-accounting point: every detected hang —
// serving path, monitor, governor — counts the crash and journals it.
// The journal append precedes the flight-recorder hook so the
// postmortem's journal tail includes this crash event.
func (m *member) noteCrash() {
	m.crashes.Add(1)
	m.event(obs.EvCrash, m.brd.VCCINTmV(), "")
	if m.onCrash != nil {
		m.onCrash(m)
	}
}

// vminDriftMV returns the injected Vmin drift bias in millivolts.
func (m *member) vminDriftMV() float64 { return math.Float64frombits(m.driftBits.Load()) }

// injCorrRate returns the injected corrected-ECC rate (words/sec).
func (m *member) injCorrRate() float64 { return math.Float64frombits(m.injCorrBits.Load()) }

// takeInjectedFailure consumes one armed chaos failure, if any.
func (m *member) takeInjectedFailure() bool {
	for {
		n := m.failInject.Load()
		if n <= 0 {
			return false
		}
		if m.failInject.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// recover runs the crash protocol: power-cycle the board, re-program the
// bitstream (re-load the kernel and re-plant labels — the FPGA loses its
// configuration on power cycle), and restore the underscaled operating
// point. Caller must hold m.mu.
func (m *member) recover() error {
	m.state.Store(stateRecovering)
	defer m.state.Store(stateHealthy)

	m.brd.Reboot()
	m.event(obs.EvReboot, m.brd.VCCINTmV(), "power-on reset complete; rails at nominal")
	// The old task is unloaded after the new one has re-planted, so the
	// golden run and the compiled kernel it holds are read from the
	// stores, not made again, even on a board that is an entry's only
	// holder.
	task, err := m.task.Reload()
	if err != nil {
		return fmt.Errorf("fleet: %s: re-deploy: %w", m.id, err)
	}
	if err := task.PlantLabels(m.ds, m.bench.TargetAccPct, dnndk.LabelSeed(m.seed)); err != nil {
		return fmt.Errorf("fleet: %s: re-plant: %w", m.id, err)
	}
	if m.task != nil {
		_ = m.task.Unload()
	}
	m.task = task
	m.redeploy.Add(1)
	m.event(obs.EvRedeploy, m.opMV(), "kernel re-deployed; restoring governed rails")
	if err := m.setVCCINT(m.opMV()); err != nil {
		return fmt.Errorf("fleet: %s: restore %.0f mV: %w", m.id, m.opMV(), err)
	}
	// Reboot returned every rail to nominal; the governed VCCBRAM point
	// must survive the crash exactly like the governed VCCINT point.
	if mv := m.bramOpMV(); mv > 0 && mv != silicon.VnomMV {
		if err := m.setVCCBRAM(mv); err != nil {
			return fmt.Errorf("fleet: %s: restore VCCBRAM %.0f mV: %w", m.id, mv, err)
		}
	}
	return nil
}

// noteServedFaults feeds one served pass's fault signals to the board's
// governor loops: MAC events drive the VCCINT climb, harmful BRAM events
// — raw flips unprotected, detected+silent words under ECC (corrected
// words are exactly the events the ECC-aware mode tolerates) — drive the
// VCCBRAM climb.
func (m *member) noteServedFaults(mac, bram int64, c ecc.Counts) {
	m.servedFaults.Add(mac)
	if m.prot.Enabled() {
		m.servedBRAM.Add(c.Bad())
	} else {
		m.servedBRAM.Add(bram)
	}
}

// maxECCReruns bounds how often one served pass is run again after
// SECDED flagged an uncorrectable word in it.
const maxECCReruns = 3

// errUncorrectable fails a job whose pass SECDED flagged on every rerun.
var errUncorrectable = errors.New("fleet: uncorrectable BRAM words in every rerun of a served pass")

// rerunOrdinal is the fault-stream ordinal of rerun k of the pass whose
// attempt ordinal is ord. Reruns set the high word, so a rerun never
// replays a crash retry's or another visit's stream, and rerun 0 is the
// attempt itself.
func rerunOrdinal(ord int64, k int) int64 { return ord | int64(k)<<32 }

// rejectFlagged handles a served pass whose SECDED counts carry a
// detected word. The decoder's flag is visible to the host
// (ecc/protection.go), so the pass's answer is discarded, never
// returned; its fault signals still reach the governor. It counts and
// journals rerun k, or fails the attempt once k passes maxECCReruns (the
// job may then move to another board).
func (m *member) rejectFlagged(mac, bram int64, c ecc.Counts, k int) error {
	m.noteServedFaults(mac, bram, c)
	if k > maxECCReruns {
		m.event(obs.EvECCUncorrectable, m.brd.VCCBRAMmV(),
			fmt.Sprintf("%d uncorrectable words in a served pass; giving up on this board after %d reruns", c.Detected, maxECCReruns))
		return errUncorrectable
	}
	m.eccReruns.Add(1)
	m.event(obs.EvECCUncorrectable, m.brd.VCCBRAMmV(),
		fmt.Sprintf("%d uncorrectable words in a served pass; rerun %d of %d on a fresh fault draw", c.Detected, k, maxECCReruns))
	return nil
}

// stateName renders the member state for status reports.
func (m *member) stateName() string {
	if m.state.Load() == stateRecovering {
		return "recovering"
	}
	if m.brd.Hung() {
		return "hung"
	}
	return "healthy"
}

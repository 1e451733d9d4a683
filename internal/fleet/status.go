package fleet

import (
	"math"

	"fpgauv/internal/quant"
)

// BoardGovernorStatus is one board's adaptive-voltage control state.
type BoardGovernorStatus struct {
	// Enabled mirrors the pool-wide governor switch.
	Enabled bool `json:"enabled"`
	// BaselineMV is the static startup operating point the governor
	// descends from (and measures savings against).
	BaselineMV float64 `json:"baseline_mv"`
	// CleanMV is the deepest level where the canary probed clean; the
	// operating point is CleanMV plus the configured margin.
	CleanMV float64 `json:"clean_mv"`
	// FloorMV is the deepest level the loop may command (Vcrash plus
	// the floor margin).
	FloorMV float64 `json:"floor_mv"`
	// Settled reports that the loop has quiesced at its point and pays
	// no probe overhead until the thermal conditions move.
	Settled bool `json:"settled"`
	// LastAction describes the loop's most recent decision.
	LastAction string `json:"last_action"`
	// Probes/Climbs/Descents/CanaryFaults are lifetime loop counters.
	Probes       int64 `json:"probes"`
	Climbs       int64 `json:"climbs"`
	Descents     int64 `json:"descents"`
	CanaryFaults int64 `json:"canary_faults"`
	// SavedW is the modeled power saved right now versus parking at
	// BaselineMV; SavedJ integrates it over the loop's lifetime.
	SavedW float64 `json:"saved_w"`
	SavedJ float64 `json:"saved_j"`
	// BRAM reports the VCCBRAM loop (zero-valued when BRAM governing is
	// off).
	BRAM BoardBRAMGovernorStatus `json:"bram"`
}

// BoardBRAMGovernorStatus is one board's VCCBRAM control state.
type BoardBRAMGovernorStatus struct {
	// CleanMV is the deepest VCCBRAM level whose canary signal stayed
	// acceptable; the operating point is CleanMV plus the BRAM margin.
	CleanMV float64 `json:"clean_mv"`
	// FloorMV bounds the descent.
	FloorMV float64 `json:"floor_mv"`
	// Settled reports the loop has quiesced (the BRAM fault law has no
	// thermal term; only served harmful events re-open the seek).
	Settled bool `json:"settled"`
	// Probes/Climbs/Descents are lifetime loop counters.
	Probes   int64 `json:"probes"`
	Climbs   int64 `json:"climbs"`
	Descents int64 `json:"descents"`
	// CanaryCorrected counts tolerated corrected words in BRAM probes
	// (the ECC-aware mode's leading indicator); CanaryBad the harmful
	// events that bounded the descent.
	CanaryCorrected int64 `json:"canary_corrected"`
	CanaryBad       int64 `json:"canary_bad"`
}

// GovernorStatus is the pool-wide governor snapshot.
type GovernorStatus struct {
	Enabled       bool    `json:"enabled"`
	IntervalMS    float64 `json:"interval_ms"`
	StepMV        float64 `json:"step_mv"`
	MarginMV      float64 `json:"margin_mv"`
	FloorMarginMV float64 `json:"floor_margin_mv"`
	ProbeImages   int     `json:"probe_images"`
	ConfirmProbes int     `json:"confirm_probes"`
	VerifyEvery   int     `json:"verify_every"`
	RetestDeltaC  float64 `json:"retest_delta_c"`
	// BRAM mirrors the VCCBRAM loop configuration (see GovernorConfig).
	BRAM            bool    `json:"bram"`
	BRAMStepMV      float64 `json:"bram_step_mv"`
	BRAMMarginMV    float64 `json:"bram_margin_mv"`
	BRAMFloorMV     float64 `json:"bram_floor_mv"`
	CorrectedBudget int64   `json:"corrected_budget"`
	// Aggregates across all boards.
	Probes       int64 `json:"probes"`
	Climbs       int64 `json:"climbs"`
	Descents     int64 `json:"descents"`
	CanaryFaults int64 `json:"canary_faults"`
	// BRAMProbes/BRAMClimbs/BRAMDescents aggregate the VCCBRAM loops.
	BRAMProbes   int64   `json:"bram_probes"`
	BRAMClimbs   int64   `json:"bram_climbs"`
	BRAMDescents int64   `json:"bram_descents"`
	SavedW       float64 `json:"saved_w"`
	SavedJ       float64 `json:"saved_j"`
}

// BoardStatus is one board's health and telemetry snapshot.
type BoardStatus struct {
	// Board is the pool-unique id ("platform-A#0").
	Board string `json:"board"`
	// Sample is the silicon sample ("platform-A").
	Sample string `json:"sample"`
	// State is "healthy", "recovering" or "hung".
	State string `json:"state"`
	// VCCINTmV is the live rail level; OperatingMV is the steady-state
	// target inside the guardband.
	VCCINTmV    float64 `json:"vccint_mv"`
	OperatingMV float64 `json:"operating_mv"`
	// VCCBRAMmV is the live BRAM rail level; OperatingBRAMMV its
	// steady-state target (nominal unless the ECC-aware governor walked
	// it down).
	VCCBRAMmV       float64 `json:"vccbram_mv"`
	OperatingBRAMMV float64 `json:"operating_bram_mv"`
	// VminMV/VcrashMV are the board's measured characterization.
	VminMV   float64 `json:"vmin_mv"`
	VcrashMV float64 `json:"vcrash_mv"`
	// GuardbandMV is Vnom - Vmin (the paper's headline ~280 mV).
	GuardbandMV float64 `json:"guardband_mv"`
	// TempC is the present die temperature.
	TempC float64 `json:"temp_c"`
	// PowerW/VCCINTW/VCCBRAMW decompose the present on-chip power.
	PowerW   float64 `json:"power_w"`
	VCCINTW  float64 `json:"vccint_w"`
	VCCBRAMW float64 `json:"vccbram_w"`
	// GOPs and GOPsPerW are the modeled throughput and efficiency at
	// the present operating point.
	GOPs     float64 `json:"gops"`
	GOPsPerW float64 `json:"gops_per_w"`
	// Served/Retries/Crashes/Reboots/Redeploys are lifetime counters.
	Served    int64 `json:"served"`
	Retries   int64 `json:"retries"`
	Crashes   int64 `json:"crashes"`
	Reboots   int   `json:"reboots"`
	Redeploys int64 `json:"redeploys"`
	// Health is the scorer's grade ("ok", "watch" or "degraded") and
	// HealthScore its 0-100 score — margin regression (Vmin drift,
	// rising corrected-ECC, crash clusters) surfaces here first.
	Health      string  `json:"health"`
	HealthScore float64 `json:"health_score"`
	// Governor is the board's adaptive-voltage control state (nil when
	// the pool has no governor).
	Governor *BoardGovernorStatus `json:"governor,omitempty"`
	// ECC is the board's BRAM SECDED protection and scrubbing snapshot.
	ECC *BoardECCStatus `json:"ecc,omitempty"`
}

// ClusterStatus is the router tier's snapshot, present on Status only
// when the scheduler is a multi-pool cluster.
type ClusterStatus struct {
	// Pools is one routing-level entry per pool, spares included, in
	// stable index order.
	Pools []PoolRouteStatus `json:"pools"`
	// ActivePools/SparePools split the pool set by activation state.
	ActivePools int `json:"active_pools"`
	SparePools  int `json:"spare_pools"`
	// Routes counts dispatch decisions; Hops counts shed-and-retry
	// handoffs to the next candidate pool.
	Routes int64 `json:"routes"`
	Hops   int64 `json:"hops"`
	// Sheds counts requests the router refused outright (every
	// candidate pool saturated); SpareActivations counts warm spares
	// promoted to active.
	Sheds            int64 `json:"sheds"`
	SpareActivations int64 `json:"spare_activations"`
}

// PoolRouteStatus is one pool as the router sees it.
type PoolRouteStatus struct {
	// Pool is the pool's configured name.
	Pool string `json:"pool"`
	// Active is false for a warm spare that has not been promoted.
	Active bool `json:"active"`
	Boards int  `json:"boards"`
	// Queued/InFlight/MaxQueue are the pool's live admission signals.
	Queued   int `json:"queued"`
	InFlight int `json:"in_flight"`
	MaxQueue int `json:"max_queue"`
	// Routes counts requests dispatched to this pool; Sheds counts
	// attempts refused here (router pre-check or pool admission).
	Routes int64 `json:"routes"`
	Sheds  int64 `json:"sheds"`
	// Quiescent is the pool's settled-board count (the latency-SLO
	// routing signal) and PowerW its modeled accelerator power at the
	// present rails (the bulk-traffic cost signal).
	Quiescent int     `json:"quiescent_boards"`
	PowerW    float64 `json:"power_w"`
	// Degraded is the pool's degraded-board count per the health scorer
	// (the router's candidate-ordering penalty signal).
	Degraded int `json:"degraded_boards"`
}

// Status is a whole-pool snapshot.
type Status struct {
	// Pool names the scheduler that produced the snapshot ("pool" for an
	// unnamed single pool, "cluster" for a router aggregate).
	Pool      string `json:"pool"`
	Benchmark string `json:"benchmark"`
	// Sparsity is the deployed kernels' pruned-away weight fraction
	// (0 = dense); Backend the compute backend they were compiled for
	// ("dense" or "sparse" — the result of auto selection, not the
	// requested mode).
	Sparsity float64       `json:"sparsity"`
	Backend  string        `json:"backend"`
	Boards   []BoardStatus `json:"boards"`
	Queued   int           `json:"queued"`
	// InFlight is the number of jobs executing on boards right now;
	// MaxQueue the admission bound (0 = unbounded) and Shed the
	// requests refused with ErrSaturated since startup.
	InFlight int   `json:"in_flight"`
	MaxQueue int   `json:"max_queue"`
	Shed     int64 `json:"shed"`
	// Requests/Served span both job kinds; the eval/infer splits below
	// partition them by traffic class.
	Requests int64 `json:"requests"`
	Served   int64 `json:"served"`
	// EvalRequests/EvalServed count whole evaluation-set passes
	// (characterization and accuracy traffic).
	EvalRequests int64 `json:"eval_requests"`
	EvalServed   int64 `json:"eval_served"`
	// InferRequests/InferServed count caller-image inference jobs;
	// InferImages is the images classified and InferMicroBatches the
	// accelerator passes they were amortized across.
	InferRequests     int64 `json:"infer_requests"`
	InferServed       int64 `json:"infer_served"`
	InferImages       int64 `json:"infer_images"`
	InferMicroBatches int64 `json:"infer_micro_batches"`
	Requeues          int64 `json:"requeues"`
	Rejected          int64 `json:"rejected"`
	Failed            int64 `json:"failed"`
	// Canceled counts jobs whose caller abandoned the wait before a
	// worker picked them up; workers skip them without an accelerator
	// pass.
	Canceled  int64 `json:"canceled"`
	Crashes   int64 `json:"crashes"`
	Reboots   int   `json:"reboots"`
	Redeploys int64 `json:"redeploys"`
	MACFaults int64 `json:"mac_faults"`
	// BRAMFaults counts injected BRAM bit flips across all served work.
	BRAMFaults int64 `json:"bram_faults"`
	// GOPs is the aggregate modeled throughput of all boards.
	GOPs float64 `json:"gops"`
	// GemmWorkers is the effective width of the process-wide GEMM tile
	// worker pool (shared by conv macro-tiles and batch lanes).
	GemmWorkers int `json:"gemm_workers"`
	// GemmPool is that pool's lifetime activity (process-wide, like
	// GemmWorkers): refused offers against accepted ones, and tiles run
	// by callers against helpers, are how oversubscription reads.
	GemmPool quant.TilePoolStats `json:"gemm_pool"`
	// Governor is the pool-wide adaptive-voltage snapshot (nil when
	// the pool has no governor).
	Governor *GovernorStatus `json:"governor,omitempty"`
	// ECC is the pool-wide BRAM protection snapshot.
	ECC    *ECCStatus `json:"ecc,omitempty"`
	Closed bool       `json:"closed"`
	// Cluster is the router tier's view (nil for a single pool).
	Cluster *ClusterStatus `json:"cluster,omitempty"`
}

// Status snapshots the pool without blocking the serving path: counters
// are atomics and board telemetry is internally synchronized, so a
// snapshot can be taken while every board is mid-classification.
func (p *Pool) Status() Status {
	st := Status{
		Pool:              p.Name(),
		Benchmark:         p.cfg.Benchmark,
		Queued:            p.queue.Len(),
		InFlight:          int(p.inFlight.Load()),
		MaxQueue:          p.cfg.MaxQueue,
		Shed:              p.shed.Load(),
		EvalRequests:      p.evalReqs.Load(),
		EvalServed:        p.evalServed.Load(),
		InferRequests:     p.inferReqs.Load(),
		InferServed:       p.inferServed.Load(),
		InferImages:       p.inferImages.Load(),
		InferMicroBatches: p.microBatches.Load(),
		Requeues:          p.requeues.Load(),
		Rejected:          p.rejected.Load(),
		Failed:            p.failed.Load(),
		Canceled:          p.canceled.Load(),
		MACFaults:         p.macF.Load(),
		BRAMFaults:        p.bramF.Load(),
		GemmWorkers:       quant.Workers(),
		GemmPool:          quant.PoolStats(),
		Closed:            p.closing.Load(),
	}
	st.Requests = st.EvalRequests + st.InferRequests
	st.Served = st.EvalServed + st.InferServed
	if len(p.members) > 0 {
		// Every member deploys the same kernel configuration, so the
		// first board's compiled kernel speaks for the pool.
		k := p.members[0].kernel
		st.Sparsity = k.Sparsity
		st.Backend = k.BackendName()
	}
	for _, m := range p.members {
		b := p.boardStatus(m)
		st.Boards = append(st.Boards, b)
		st.Crashes += b.Crashes
		st.Reboots += b.Reboots
		st.Redeploys += b.Redeploys
		st.GOPs += b.GOPs
	}
	st.Governor = p.governorSummary(st.Boards)
	st.ECC = p.eccSummary(st.Boards)
	return st
}

// governorSummary aggregates already-computed per-board governor
// snapshots into the pool-wide view (nil when the pool has no
// governor). Aggregating from the board snapshots keeps each Status
// call down to one power-model evaluation pair per board.
func (p *Pool) governorSummary(boards []BoardStatus) *GovernorStatus {
	if p.gov == nil {
		return nil
	}
	cfg := p.gov.config()
	gs := &GovernorStatus{
		Enabled:         p.gov.enabled.Load(),
		IntervalMS:      float64(cfg.Interval.Microseconds()) / 1000,
		StepMV:          cfg.StepMV,
		MarginMV:        cfg.MarginMV,
		FloorMarginMV:   cfg.FloorMarginMV,
		ProbeImages:     cfg.ProbeImages,
		ConfirmProbes:   cfg.ConfirmProbes,
		VerifyEvery:     cfg.VerifyEvery,
		RetestDeltaC:    cfg.RetestDeltaC,
		BRAM:            cfg.BRAM,
		BRAMStepMV:      cfg.BRAMStepMV,
		BRAMMarginMV:    cfg.BRAMMarginMV,
		BRAMFloorMV:     cfg.BRAMFloorMV,
		CorrectedBudget: cfg.CorrectedBudget,
	}
	for _, b := range boards {
		if b.Governor == nil {
			continue
		}
		gs.Probes += b.Governor.Probes
		gs.Climbs += b.Governor.Climbs
		gs.Descents += b.Governor.Descents
		gs.CanaryFaults += b.Governor.CanaryFaults
		gs.BRAMProbes += b.Governor.BRAM.Probes
		gs.BRAMClimbs += b.Governor.BRAM.Climbs
		gs.BRAMDescents += b.Governor.BRAM.Descents
		gs.SavedW += b.Governor.SavedW
		gs.SavedJ += b.Governor.SavedJ
	}
	return gs
}

// GovernorStatus snapshots the pool's adaptive-voltage state, or nil
// when the pool has no governor.
func (p *Pool) GovernorStatus() *GovernorStatus {
	return p.Status().Governor
}

// boardStatus snapshots one member.
func (p *Pool) boardStatus(m *member) BoardStatus {
	pb := m.brd.PowerBreakdown()
	gops := m.kernel.GOPs(m.rt.DPU().Cores(), m.brd.FrequencyMHz())
	b := BoardStatus{
		Board:           m.id,
		Sample:          m.brd.Sample().String(),
		State:           m.stateName(),
		VCCINTmV:        m.brd.VCCINTmV(),
		OperatingMV:     m.opMV(),
		VCCBRAMmV:       m.brd.VCCBRAMmV(),
		OperatingBRAMMV: m.bramOpMV(),
		VminMV:          m.regions.VminMV,
		VcrashMV:        m.regions.VcrashMV,
		GuardbandMV:     m.regions.GuardbandMV(),
		TempC:           m.brd.DieTempC(),
		PowerW:          pb.TotalW,
		VCCINTW:         pb.VCCINTW,
		VCCBRAMW:        pb.VCCBRAMW,
		GOPs:            gops,
		Served:          m.served.Load(),
		Retries:         m.retries.Load(),
		Crashes:         m.crashes.Load(),
		Reboots:         m.brd.Reboots(),
		Redeploys:       m.redeploy.Load(),
	}
	if pb.TotalW > 0 {
		b.GOPsPerW = gops / pb.TotalW
	}
	if p.telem != nil {
		h := p.boardHealth(m)
		b.Health = h.State
		b.HealthScore = h.Score
	}
	if m.gov != nil && p.gov != nil {
		cfg := p.gov.config()
		saved := m.brd.PowerBreakdownAt(m.staticMV).TotalW - pb.TotalW
		if saved < 0 {
			saved = 0
		}
		b.Governor = &BoardGovernorStatus{
			Enabled:      p.gov.enabled.Load(),
			BaselineMV:   m.staticMV,
			CleanMV:      math.Float64frombits(m.gov.cleanBits.Load()),
			FloorMV:      governFloorMV(m, cfg),
			Settled:      m.gov.settledFlag.Load(),
			LastAction:   m.gov.lastAction(),
			Probes:       m.gov.probes.Load(),
			Climbs:       m.gov.climbs.Load(),
			Descents:     m.gov.descents.Load(),
			CanaryFaults: m.gov.canaryFaults.Load(),
			SavedW:       saved,
			SavedJ:       m.gov.savedJ(),
		}
		if cfg.BRAM {
			b.Governor.BRAM = BoardBRAMGovernorStatus{
				CleanMV:         math.Float64frombits(m.gov.bramCleanBits.Load()),
				FloorMV:         cfg.BRAMFloorMV,
				Settled:         m.gov.bramSettledF.Load(),
				Probes:          m.gov.bramProbes.Load(),
				Climbs:          m.gov.bramClimbs.Load(),
				Descents:        m.gov.bramDescents.Load(),
				CanaryCorrected: m.gov.canaryCorrected.Load(),
				CanaryBad:       m.gov.canaryBad.Load(),
			}
		}
	}
	b.ECC = m.boardECCStatus()
	return b
}

package cluster

import (
	"fpgauv/internal/fleet"
	"fpgauv/internal/telemetry"
)

// Status aggregates every pool's snapshot into one fleet.Status: boards
// concatenated (ids are pool-qualified, so they stay unique), counters
// summed, governor/ECC summaries merged, and the router tier's own view
// attached as Status.Cluster. Spare pools are included — their boards
// are characterized and parked, and hiding them would make the board
// count lie.
func (r *Router) Status() fleet.Status {
	agg := fleet.Status{Pool: "cluster", MaxQueue: r.cfg.Pool.MaxQueue, Closed: r.closing.Load()}
	cl := &fleet.ClusterStatus{
		Routes:           r.routes.Load(),
		Hops:             r.hops.Load(),
		Sheds:            r.sheds.Load(),
		SpareActivations: r.spareActs.Load(),
	}
	// The aggregate Shed counts requests refused to the caller (the
	// router's terminal sheds); per-pool admission refusals are visible
	// in the per-pool entries.
	agg.Shed = r.sheds.Load()
	var gov *fleet.GovernorStatus
	var ecc *fleet.ECCStatus
	for _, e := range r.entries {
		st := e.pool.Status()
		active := e.active.Load()
		if agg.Benchmark == "" {
			agg.Benchmark = st.Benchmark
			// Every pool is built from the same template, so the first
			// pool's deployed sparsity and backend speak for the cluster.
			agg.Sparsity = st.Sparsity
			agg.Backend = st.Backend
		}
		agg.Boards = append(agg.Boards, st.Boards...)
		agg.Queued += st.Queued
		agg.InFlight += st.InFlight
		agg.Requests += st.Requests
		agg.Served += st.Served
		agg.EvalRequests += st.EvalRequests
		agg.EvalServed += st.EvalServed
		agg.InferRequests += st.InferRequests
		agg.InferServed += st.InferServed
		agg.InferImages += st.InferImages
		agg.InferMicroBatches += st.InferMicroBatches
		agg.Requeues += st.Requeues
		agg.Rejected += st.Rejected
		agg.Failed += st.Failed
		agg.Canceled += st.Canceled
		agg.Crashes += st.Crashes
		agg.Reboots += st.Reboots
		agg.Redeploys += st.Redeploys
		agg.MACFaults += st.MACFaults
		agg.BRAMFaults += st.BRAMFaults
		agg.GOPs += st.GOPs
		// The GEMM worker pool is process-wide, so every pool reports the
		// same values; carry them rather than summing.
		agg.GemmWorkers = st.GemmWorkers
		agg.GemmPool = st.GemmPool
		gov = mergeGovernor(gov, st.Governor)
		ecc = mergeECC(ecc, st.ECC)

		q, _ := e.pool.QuiescentBoards()
		pr := fleet.PoolRouteStatus{
			Pool:      e.name,
			Active:    active,
			Boards:    e.pool.Size(),
			Queued:    st.Queued,
			InFlight:  st.InFlight,
			MaxQueue:  st.MaxQueue,
			Routes:    e.routes.Load(),
			Sheds:     e.sheds.Load() + st.Shed,
			Quiescent: q,
			PowerW:    e.pool.OperatingPowerW(),
			Degraded:  e.pool.DegradedBoards(),
		}
		cl.Pools = append(cl.Pools, pr)
		if active {
			cl.ActivePools++
		} else {
			cl.SparePools++
		}
	}
	agg.Governor = gov
	agg.ECC = ecc
	agg.Cluster = cl
	return agg
}

// Health concatenates every pool's board health scores in pool index
// order (spares included — a degraded spare should not be promoted
// blind).
func (r *Router) Health() []telemetry.BoardHealth {
	var out []telemetry.BoardHealth
	for _, e := range r.entries {
		out = append(out, e.pool.BoardHealth()...)
	}
	return out
}

// Postmortems merges every pool's retained crash postmortems newest
// first (limit <= 0: all retained).
func (r *Router) Postmortems(limit int) []telemetry.Postmortem {
	sets := make([][]telemetry.Postmortem, 0, len(r.entries))
	for _, e := range r.entries {
		sets = append(sets, e.pool.Postmortems(0))
	}
	return telemetry.MergePostmortems(limit, sets...)
}

// mergeGovernor folds one pool's governor summary into the cluster
// aggregate: configuration comes from the first pool (every pool is
// built from the same template), counters and savings are summed.
func mergeGovernor(into, st *fleet.GovernorStatus) *fleet.GovernorStatus {
	if st == nil {
		return into
	}
	if into == nil {
		cp := *st
		return &cp
	}
	into.Enabled = into.Enabled || st.Enabled
	into.Probes += st.Probes
	into.Climbs += st.Climbs
	into.Descents += st.Descents
	into.CanaryFaults += st.CanaryFaults
	into.BRAMProbes += st.BRAMProbes
	into.BRAMClimbs += st.BRAMClimbs
	into.BRAMDescents += st.BRAMDescents
	into.SavedW += st.SavedW
	into.SavedJ += st.SavedJ
	return into
}

// mergeECC folds one pool's ECC summary into the cluster aggregate.
func mergeECC(into, st *fleet.ECCStatus) *fleet.ECCStatus {
	if st == nil {
		return into
	}
	if into == nil {
		cp := *st
		return &cp
	}
	into.Enabled = into.Enabled || st.Enabled
	into.Counts.Add(st.Counts)
	into.ScrubPasses += st.ScrubPasses
	into.ScrubCorrected += st.ScrubCorrected
	into.ScrubReloaded += st.ScrubReloaded
	return into
}

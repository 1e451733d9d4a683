package fpgauv

import (
	"net/http"

	"fpgauv/internal/cluster"
	"fpgauv/internal/fleet"
	"fpgauv/internal/obs"
	"fpgauv/internal/quant"
	"fpgauv/internal/serve"
	"fpgauv/internal/telemetry"
)

// Re-exported fleet types: the multi-board scheduling and crash-aware
// serving layer (see internal/fleet).
type (
	// Fleet is a pool of simulated boards held at underscaled operating
	// points, serving classification traffic with crash recovery.
	Fleet = fleet.Pool
	// FleetConfig sizes and parameterizes a fleet.
	FleetConfig = fleet.Config
	// FleetRequest is one classification job (a full evaluation-set
	// pass).
	FleetRequest = fleet.Request
	// FleetResult reports one served request.
	FleetResult = fleet.Result
	// FleetInferRequest is one inference job: caller-supplied images
	// classified individually, batched into shared accelerator passes.
	FleetInferRequest = fleet.InferRequest
	// FleetInferResult reports one served inference job.
	FleetInferResult = fleet.InferResult
	// FleetInferOutput is one image's classification.
	FleetInferOutput = fleet.InferOutput
	// FleetStatus is a whole-pool snapshot.
	FleetStatus = fleet.Status
	// FleetBoardStatus is one board's health and telemetry snapshot.
	FleetBoardStatus = fleet.BoardStatus
	// Scheduler is the serving contract the HTTP front-end programs
	// against: a single Fleet and a Cluster router implement it
	// interchangeably.
	Scheduler = fleet.Scheduler
	// SaturatedError is the typed admission-control refusal: the
	// scheduler's backlog bound was hit and the request was shed. It
	// carries the backlog depth and a RetryAfter drain estimate (mapped
	// to HTTP 429 + Retry-After by the front-end).
	SaturatedError = fleet.ErrSaturated
	// Cluster is a sharded router scheduling requests across N fleets
	// with rendezvous affinity, admission control, load shedding and
	// warm spares.
	Cluster = cluster.Router
	// ClusterConfig sizes and parameterizes a cluster.
	ClusterConfig = cluster.Config
	// ClusterStatus is the router tier's snapshot, attached to
	// FleetStatus.Cluster by Cluster.Status.
	ClusterStatus = fleet.ClusterStatus
	// PoolRouteStatus is one pool as the router sees it.
	PoolRouteStatus = fleet.PoolRouteStatus
	// GovernorConfig tunes the fleet's per-board adaptive voltage
	// loops (the paper's §9 dynamic-voltage-adjustment future work).
	GovernorConfig = fleet.GovernorConfig
	// GovernorTuning is a partial runtime re-configuration of the
	// governor; zero-valued fields keep their present setting.
	GovernorTuning = fleet.GovernorTuning
	// GovernorStatus is the pool-wide adaptive-voltage snapshot.
	GovernorStatus = fleet.GovernorStatus
	// BoardGovernorStatus is one board's adaptive-voltage state.
	BoardGovernorStatus = fleet.BoardGovernorStatus
	// ECCConfig parameterizes BRAM SECDED protection and frame
	// scrubbing — the paper's mitigation path for reduced-voltage BRAM
	// operation.
	ECCConfig = fleet.ECCConfig
	// ECCStatus is the pool-wide protection snapshot.
	ECCStatus = fleet.ECCStatus
	// BoardECCStatus is one board's protection and scrubbing snapshot.
	BoardECCStatus = fleet.BoardECCStatus
	// ServeConfig parameterizes the HTTP front-end.
	ServeConfig = serve.Config
	// TelemetryConfig sizes the fleet's per-board time-series recorder,
	// health scorer and crash flight recorder.
	TelemetryConfig = telemetry.Config
	// TelemetryPoint is one rollup bucket of a recorded board series.
	TelemetryPoint = telemetry.Point
	// SLOConfig declares the serving objectives the burn-rate tracker
	// alerts on.
	SLOConfig = telemetry.SLOConfig
	// SLOStatus is the multi-window burn-rate snapshot served by
	// /v1/fleet/health.
	SLOStatus = telemetry.SLOStatus
	// BoardHealth is one board's health score and state.
	BoardHealth = telemetry.BoardHealth
	// Postmortem is one retained crash record: pre-crash telemetry
	// window, journal tail and active trace id.
	Postmortem = telemetry.Postmortem
	// LatencyDigest is a streaming log-bucketed quantile digest
	// (p50/p99/p999 with bounded relative error).
	LatencyDigest = telemetry.Digest
	// Server is the HTTP inference front-end of a fleet.
	Server = serve.Server
	// FleetEvent is one structured fleet journal entry (crash, reboot,
	// redeploy, requeue, rail move, governor move, scrub pass).
	FleetEvent = obs.Event
	// FleetJournal is the bounded ring of fleet events, cursor-paged by
	// Fleet.Journal().Since and GET /v1/fleet/events.
	FleetJournal = obs.Journal
	// Tracer owns request tracing: the enable switch, trace-id
	// generation and the ring of recent traces.
	Tracer = obs.Tracer
	// Trace is one request's span tree.
	Trace = obs.Trace
	// Span is one timed stage of a trace.
	Span = obs.Span
)

// DebugHandler serves net/http/pprof profiling endpoints under
// /debug/pprof/ — mount it on a separate, non-public listener.
func DebugHandler() http.Handler { return obs.DebugHandler() }

// ErrFleetClosed is returned by Fleet.Classify after Close has begun.
var ErrFleetClosed = fleet.ErrClosed

// NewFleet assembles, characterizes and starts a pool of boards. Boards
// cycle through the paper's three silicon samples; each is measured (or
// recalls a cached measurement) for Vmin/Vcrash and then held at
// Vmin+MarginMV inside the guardband.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return fleet.New(cfg) }

// NewCluster assembles N pools (plus warm spares) from one template and
// starts the router that schedules requests across them.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// NewServer wires an HTTP front-end (JSON API, request batching, text
// metrics) to a running scheduler — a single Fleet or a Cluster,
// interchangeably.
func NewServer(sched Scheduler, cfg ServeConfig) *Server { return serve.New(sched, cfg) }

// GemmWorkers reports the effective width of the process-wide GEMM tile
// worker pool: the compute engine splits convolution/FC macro-tiles and
// batch lanes across this many executors (the calling goroutine
// included). Also surfaced as FleetStatus.GemmWorkers and the
// uvolt_gemm_workers gauge.
func GemmWorkers() int { return quant.Workers() }

// SetGemmWorkers retunes the GEMM worker pool at runtime: n >= 1 pins
// the width (capped internally), n <= 0 restores the GOMAXPROCS-aware
// automatic default. Results are bit-exact at every width — only
// latency changes. FleetConfig.GemmWorkers applies the same setting at
// fleet construction.
func SetGemmWorkers(n int) { quant.SetWorkers(n) }

// Package serve is the HTTP inference front-end of a fleet.Scheduler —
// a single pool or a multi-pool cluster router, interchangeably: a JSON
// API for classification and fleet operations, request batching that
// amortizes concurrent callers over shared accelerator passes,
// admission-control mapping (ErrSaturated → 429 + Retry-After), and
// Prometheus-style text metrics.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"fpgauv/internal/fleet"
	"fpgauv/internal/obs"
	"fpgauv/internal/telemetry"
	"fpgauv/internal/tensor"
)

// Config parameterizes the front-end.
type Config struct {
	// BatchSize is the maximum classify calls coalesced into one
	// accelerator pass (default 8).
	BatchSize int
	// BatchImages is the maximum images coalesced into one inference
	// micro-batch (default 16, the fleet's micro-batch size).
	BatchImages int
	// BatchWindow is the longest hold of a request for batch-mates while
	// every board is busy (default 2 ms). With a board free a request is
	// dispatched at once and never meets it.
	BatchWindow time.Duration
	// Trace enables request tracing: every classify/infer call records a
	// span tree served back by /v1/trace/{id} and /v1/traces.
	Trace bool
	// TraceRing is how many recent traces are retained (default 256).
	TraceRing int
	// SLO declares the serving objectives the burn-rate tracker alerts
	// on (zero value: 99.9% availability, 250ms latency goal at p99).
	SLO telemetry.SLOConfig
}

// stageOrder fixes the exposition order of the per-stage latency
// histograms (and enumerates the stages that get one).
var stageOrder = []string{
	obs.StageRequest, obs.StageDecode, obs.StageBatchWait, obs.StageAssemble,
	obs.StageFleet, obs.StageFleetWait, obs.StageExecute, obs.StageRequeue,
	obs.StageRespond,
}

// Server routes HTTP traffic onto a fleet scheduler (one pool or a
// cluster router — the front-end cannot tell them apart).
type Server struct {
	sched fleet.Scheduler
	// pools caches sched.Pools() for ?pool=-scoped operations (the pool
	// set is fixed for a scheduler's lifetime; spares exist from startup).
	pools   []*fleet.Pool
	batch   *batcher
	mux     *http.ServeMux
	tracer  *obs.Tracer
	started time.Time

	// routes is the API route table (see New); each route counts its
	// requests under its path label.
	routes     []route
	errorResps atomic.Int64
	// resps counts responses by status class: 2xx, 4xx (499 included),
	// 5xx.
	resps [3]atomic.Int64

	// batchSizes tracks accelerator-pass batch sizes by traffic kind;
	// inferLatency and classifyLatency track request latency end to end;
	// stageHist holds one duration histogram per traced request stage.
	batchSizes      map[string]*histogram
	inferLatency    *histogram
	classifyLatency *histogram
	stageHist       map[string]*histogram

	// slo is the serving burn-rate tracker (journaling slo_burn to the
	// scheduler journal); classifyDigest/inferDigest are the per-endpoint
	// streaming latency quantile digests behind
	// uvolt_endpoint_latency_seconds.
	slo            *telemetry.SLOTracker
	classifyDigest *telemetry.Digest
	inferDigest    *telemetry.Digest
}

// New wires a server to a running scheduler: a *fleet.Pool or a
// *cluster.Router, interchangeably.
func New(sched fleet.Scheduler, cfg Config) *Server {
	latencyBounds := []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}
	s := &Server{
		sched:   sched,
		pools:   sched.Pools(),
		batch:   newBatcher(sched, cfg.BatchSize, cfg.BatchImages, cfg.BatchWindow),
		mux:     http.NewServeMux(),
		tracer:  obs.NewTracer(cfg.TraceRing),
		started: time.Now(),
		batchSizes: map[string]*histogram{
			"classify": newHistogram(1, 2, 4, 8, 16, 32, 64),
			"infer":    newHistogram(1, 2, 4, 8, 16, 32, 64),
		},
		inferLatency:    newHistogram(latencyBounds...),
		classifyLatency: newHistogram(latencyBounds...),
		stageHist:       make(map[string]*histogram, len(stageOrder)),
		slo:             telemetry.NewSLOTracker(cfg.SLO, sched.Journal()),
		classifyDigest:  &telemetry.Digest{},
		inferDigest:     &telemetry.Digest{},
	}
	for _, st := range stageOrder {
		s.stageHist[st] = newHistogram(0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
			0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1)
	}
	s.tracer.SetEnabled(cfg.Trace)
	s.batch.tracer = s.tracer
	s.batch.onBatch = func(kind string, units int) {
		s.batchSizes[kind].Observe(float64(units))
	}
	get, post := []string{http.MethodGet}, []string{http.MethodPost}
	getPost := []string{http.MethodGet, http.MethodPost}
	// The route table, in exposition order of uvolt_http_requests_total.
	// A route's path label is its pattern without the subtree slash.
	s.routes = []route{
		{pattern: "/v1/classify", methods: post, handle: s.handleClassify},
		{pattern: "/v1/infer", methods: post, handle: s.handleInfer},
		{pattern: "/v1/fleet/status", methods: get, handle: s.handleStatus},
		{pattern: "/v1/fleet/voltage", methods: post, handle: s.handleVoltage},
		{pattern: "/v1/fleet/governor", methods: getPost, handle: s.handleGovernor},
		{pattern: "/v1/fleet/ecc", methods: getPost, handle: s.handleECC},
		{pattern: "/v1/trace/", methods: get, handle: s.handleTrace},
		{pattern: "/v1/traces", methods: get, handle: s.handleTraces},
		{pattern: "/v1/fleet/events", methods: get, handle: s.handleEvents},
		{pattern: "/v1/fleet/history", methods: get, handle: s.handleHistory},
		{pattern: "/v1/fleet/health", methods: get, handle: s.handleFleetHealth},
		{pattern: "/v1/fleet/postmortems", methods: get, handle: s.handlePostmortems},
		{pattern: "/metrics", methods: get, handle: s.handleMetrics},
	}
	for i := range s.routes {
		rt := &s.routes[i]
		rt.path = strings.TrimSuffix(rt.pattern, "/")
		s.mux.HandleFunc(rt.pattern, s.serveRoute(rt))
	}
	// Unknown /v1/fleet/* paths get the API's JSON error shape, not the
	// mux's plain-text 404. Neither it nor /healthz is counted.
	s.mux.HandleFunc("/v1/fleet/", s.handleFleetNotFound)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// route is one row of the API route table: its mux pattern, the path
// label its requests count under, the methods it accepts and its
// handler.
type route struct {
	pattern, path string
	methods       []string
	handle        http.HandlerFunc
	reqs          atomic.Int64
}

// serveRoute wraps a route's handler: it counts the request under the
// route's path label and refuses a method the route does not accept
// before the handler runs.
func (s *Server) serveRoute(rt *route) http.HandlerFunc {
	refusal := strings.Join(rt.methods, " or ") + " required"
	return func(w http.ResponseWriter, r *http.Request) {
		rt.reqs.Add(1)
		for _, m := range rt.methods {
			if r.Method == m {
				rt.handle(w, r)
				return
			}
		}
		s.errorJSON(w, http.StatusMethodNotAllowed, refusal)
	}
}

// Tracer exposes the request tracer (runtime toggling, tests).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Handler returns the HTTP handler (for http.Server or httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the batcher and shuts the scheduler down; queued work
// finishes first. Call after the HTTP listener has stopped accepting.
func (s *Server) Close() {
	s.batch.Close()
	s.sched.Close()
}

// poolScope resolves the optional ?pool= query parameter to a pool
// index. Absent returns -1 (whole scheduler); a non-integer or
// out-of-range value returns an error for the caller to map to 400.
func (s *Server) poolScope(r *http.Request) (int, error) {
	v := r.URL.Query().Get("pool")
	if v == "" {
		return -1, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 || n >= len(s.pools) {
		return 0, fmt.Errorf("pool %q out of range (cluster has %d pools)", v, len(s.pools))
	}
	return n, nil
}

// scopedPools resolves a poolScope result to the pools it addresses.
func (s *Server) scopedPools(k int) []*fleet.Pool {
	if k < 0 {
		return s.pools
	}
	return s.pools[k : k+1]
}

// scopedStatus resolves a poolScope result to one status snapshot: the
// scheduler-wide aggregate, or one pool's view.
func (s *Server) scopedStatus(k int) fleet.Status {
	if k < 0 {
		return s.sched.Status()
	}
	return s.pools[k].Status()
}

// retryAfterSecs renders an ErrSaturated drain estimate for the
// Retry-After header: whole seconds, rounded up, at least 1.
func retryAfterSecs(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// classifyRequest is the /v1/classify body (all fields optional).
type classifyRequest struct {
	// Seed pins the fault-injection stream; 0 means server-assigned.
	// Pinned-seed requests are served by a dedicated accelerator pass
	// (never coalesced with batch-mates running other seeds).
	Seed int64 `json:"seed"`
}

// classifyResponse wraps the fleet result with batching info.
type classifyResponse struct {
	fleet.Result
	// BatchSize is how many concurrent requests shared this
	// accelerator pass.
	BatchSize int `json:"batch_size"`
	// TraceID identifies the request's retained trace when tracing is on
	// (GET /v1/trace/{id} replays it).
	TraceID string `json:"trace_id,omitempty"`
}

// startTrace opens a request trace, honoring a well-formed caller
// X-Uvolt-Trace id and echoing the final id back in the same response
// header. Nil when tracing is disabled — every span call downstream of
// a nil trace is a nil-receiver no-op.
func (s *Server) startTrace(w http.ResponseWriter, r *http.Request) *obs.Trace {
	tr := s.tracer.Start(sanitizeTraceID(r.Header.Get("X-Uvolt-Trace")))
	if tr != nil {
		w.Header().Set("X-Uvolt-Trace", tr.ID())
	}
	return tr
}

// sanitizeTraceID accepts caller-supplied ids of at most 64 characters
// from [A-Za-z0-9_-]; anything else is discarded so a hostile header
// cannot smuggle arbitrary bytes into responses and the trace ring.
func sanitizeTraceID(id string) string {
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			c >= '0' && c <= '9' || c == '-' || c == '_'
		if !ok {
			return ""
		}
	}
	return id
}

// publishTrace finishes a request trace, installs it in the ring, and
// feeds every closed span's duration into the per-stage histograms.
func (s *Server) publishTrace(tr *obs.Trace) {
	if tr == nil {
		return
	}
	s.tracer.Publish(tr)
	for i := 0; i < tr.Len(); i++ {
		sp := tr.At(i)
		if h := s.stageHist[sp.Name()]; h != nil && sp.EndNS() > 0 {
			h.Observe(float64(sp.DurNS()) / 1e9)
		}
	}
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	tr := s.startTrace(w, r)
	defer s.publishTrace(tr)
	dec := tr.Root().Child(obs.StageDecode)
	var req classifyRequest
	if r.ContentLength != 0 && !s.readJSON(w, r, &req) {
		dec.End()
		return
	}
	dec.End()
	start := time.Now()
	res, batchSize, err := s.batch.Submit(r.Context(), req.Seed, tr)
	lat := time.Since(start)
	s.classifyLatency.Observe(lat.Seconds())
	s.recordSLO(s.classifyDigest, err, lat)
	switch {
	case err == nil:
		rsp := tr.Root().Child(obs.StageRespond)
		s.writeJSON(w, http.StatusOK, classifyResponse{Result: res, BatchSize: batchSize, TraceID: tr.ID()})
		rsp.End()
	default:
		s.errorForSubmit(w, err)
	}
}

// errorForSubmit maps a classify/infer submission error to its HTTP
// shape. Saturation gets 429 with a Retry-After header carrying the
// scheduler's drain estimate — the load-shedding contract clients and
// load generators key off.
func (s *Server) errorForSubmit(w http.ResponseWriter, err error) {
	var sat fleet.ErrSaturated
	switch {
	case errors.As(err, &sat):
		w.Header().Set("Retry-After", retryAfterSecs(sat.RetryAfter))
		s.errorJSON(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrShutdown), errors.Is(err, fleet.ErrClosed):
		s.errorJSON(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.errorJSON(w, 499, "client went away") // nginx's client-closed-request
	default:
		s.errorJSON(w, http.StatusInternalServerError, err.Error())
	}
}

// inferRequest is the /v1/infer body: one image as either a JSON float
// array or a base64-encoded little-endian float32 buffer, in CHW order
// matching the pool's input shape. decode.go reads it.
type inferRequest struct {
	// Pixels is the image as a flat float array (CHW).
	Pixels []float32 `json:"pixels,omitempty"`
	// ImageB64 is the image as base64-encoded little-endian float32s —
	// the compact form for binary clients.
	ImageB64 string `json:"image_b64,omitempty"`
	// Seed pins the per-image fault stream; 0 means server-assigned.
	// Pinned-seed requests get a dedicated accelerator pass.
	Seed int64 `json:"seed,omitempty"`
}

// inferResponse is one classified image plus serving metadata.
type inferResponse struct {
	// Pred is the predicted class; Probs the host-side softmax output.
	Pred  int       `json:"pred"`
	Probs []float32 `json:"probs"`
	// Board and VCCINTmV identify the serving board and its rail level.
	Board    string  `json:"board"`
	VCCINTmV float64 `json:"vccint_mv"`
	// BatchSize is how many images shared this accelerator pass.
	BatchSize int `json:"batch_size"`
	// TraceID identifies the request's retained trace when tracing is on.
	TraceID string `json:"trace_id,omitempty"`
}

// readInferImage reads one /v1/infer body (bounded by the input shape)
// into pooled memory and decodes it into a CHW tensor matching the
// pool's input shape, plus the request's seed.
func (s *Server) readInferImage(w http.ResponseWriter, r *http.Request) (*tensor.Tensor, int64, error) {
	shape := s.sched.InputShape()
	want := shape.C * shape.H * shape.W
	bb := bodyPool.Get().(*bodyBuf)
	defer bodyPool.Put(bb)
	bb.body.Reset()
	if err := readBody(w, r, inferBodyLimit(want), &bb.body); err != nil {
		return nil, 0, err
	}
	pixels, seed, err := bb.decode(want)
	if err != nil {
		return nil, 0, err
	}
	img, err := tensor.FromSlice(pixels, shape.C, shape.H, shape.W)
	return img, seed, err
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	tr := s.startTrace(w, r)
	defer s.publishTrace(tr)
	dec := tr.Root().Child(obs.StageDecode)
	img, seed, err := s.readInferImage(w, r)
	dec.End()
	if err != nil {
		s.errorJSON(w, statusForBody(err), err.Error())
		return
	}
	start := time.Now()
	outs, board, mv, batch, err := s.batch.SubmitInfer(r.Context(), []*tensor.Tensor{img}, seed, tr)
	lat := time.Since(start)
	s.inferLatency.Observe(lat.Seconds())
	s.recordSLO(s.inferDigest, err, lat)
	switch {
	case err == nil:
		rsp := tr.Root().Child(obs.StageRespond)
		s.writeJSON(w, http.StatusOK, inferResponse{
			Pred:      outs[0].Pred,
			Probs:     outs[0].Probs,
			Board:     board,
			VCCINTmV:  mv,
			BatchSize: batch,
			TraceID:   tr.ID(),
		})
		rsp.End()
	default:
		s.errorForSubmit(w, err)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	k, err := s.poolScope(r)
	if err != nil {
		s.errorJSON(w, http.StatusBadRequest, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, s.scopedStatus(k))
}

// voltageRequest is the /v1/fleet/voltage body.
type voltageRequest struct {
	// Board is the target index; -1 targets every board. An omitted
	// "board" key means board 0.
	Board int `json:"board"`
	// MV is the VCCINT level to command.
	MV float64 `json:"mv"`
	// Operating, when true, re-targets the board's steady-state point
	// (validated against Vcrash); otherwise the rail is set raw — which
	// below Vcrash deliberately induces a crash for the pool to heal.
	Operating bool `json:"operating"`
}

func (s *Server) handleVoltage(w http.ResponseWriter, r *http.Request) {
	var req voltageRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.MV <= 0 {
		s.errorJSON(w, http.StatusBadRequest, "mv must be positive")
		return
	}
	k, err := s.poolScope(r)
	if err != nil {
		s.errorJSON(w, http.StatusBadRequest, err.Error())
		return
	}
	for _, p := range s.scopedPools(k) {
		var err error
		if req.Operating {
			err = p.SetOperatingMV(req.Board, req.MV)
		} else {
			err = p.SetVCCINTmV(req.Board, req.MV)
		}
		if err != nil {
			s.errorJSON(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"ok": true, "board": req.Board, "mv": req.MV, "operating": req.Operating,
	})
}

// governorRequest is the /v1/fleet/governor POST body: a runtime
// enable/disable plus a partial re-tune. Omitted fields keep their
// present setting.
type governorRequest struct {
	Enabled       *bool   `json:"enabled"`
	IntervalMS    float64 `json:"interval_ms"`
	StepMV        float64 `json:"step_mv"`
	MarginMV      float64 `json:"margin_mv"`
	FloorMarginMV float64 `json:"floor_margin_mv"`
	ProbeImages   int     `json:"probe_images"`
	ConfirmProbes int     `json:"confirm_probes"`
	VerifyEvery   int     `json:"verify_every"`
	RetestDeltaC  float64 `json:"retest_delta_c"`
}

// governorBoard is one board's entry in the governor report.
type governorBoard struct {
	Board       string                     `json:"board"`
	State       string                     `json:"state"`
	OperatingMV float64                    `json:"operating_mv"`
	TempC       float64                    `json:"temp_c"`
	Governor    *fleet.BoardGovernorStatus `json:"governor"`
}

// governorResponse is the GET payload (and the POST reply).
type governorResponse struct {
	Governor *fleet.GovernorStatus `json:"governor"`
	Boards   []governorBoard       `json:"boards"`
}

func (s *Server) governorReport(k int) governorResponse {
	st := s.scopedStatus(k)
	out := governorResponse{Governor: st.Governor}
	for _, b := range st.Boards {
		out.Boards = append(out.Boards, governorBoard{
			Board:       b.Board,
			State:       b.State,
			OperatingMV: b.OperatingMV,
			TempC:       b.TempC,
			Governor:    b.Governor,
		})
	}
	return out
}

func (s *Server) handleGovernor(w http.ResponseWriter, r *http.Request) {
	k, err := s.poolScope(r)
	if err != nil {
		s.errorJSON(w, http.StatusBadRequest, err.Error())
		return
	}
	switch r.Method {
	case http.MethodGet:
		s.writeJSON(w, http.StatusOK, s.governorReport(k))
	case http.MethodPost:
		var req governorRequest
		if !s.readJSON(w, r, &req) {
			return
		}
		tn := fleet.GovernorTuning{
			Interval:      time.Duration(req.IntervalMS * float64(time.Millisecond)),
			StepMV:        req.StepMV,
			MarginMV:      req.MarginMV,
			FloorMarginMV: req.FloorMarginMV,
			ProbeImages:   req.ProbeImages,
			ConfirmProbes: req.ConfirmProbes,
			VerifyEvery:   req.VerifyEvery,
			RetestDeltaC:  req.RetestDeltaC,
		}
		for _, p := range s.scopedPools(k) {
			if err := p.TuneGovernor(tn); err != nil {
				s.errorJSON(w, http.StatusBadRequest, err.Error())
				return
			}
		}
		if req.Enabled != nil {
			for _, p := range s.scopedPools(k) {
				p.SetGovernorEnabled(*req.Enabled)
			}
		}
		s.writeJSON(w, http.StatusOK, s.governorReport(k))
	}
}

// eccRequest is the /v1/fleet/ecc POST body: a runtime protection
// toggle, a scrub re-tune and an optional synchronous scrub pass.
// Omitted fields keep their present setting.
type eccRequest struct {
	// Enabled toggles SECDED decoding on every board.
	Enabled *bool `json:"enabled"`
	// ScrubIntervalMS re-targets the frame-scrub period.
	ScrubIntervalMS float64 `json:"scrub_interval_ms"`
	// ScrubNow runs one synchronous scrub pass on every board before
	// the reply is built.
	ScrubNow bool `json:"scrub_now"`
}

// eccBoard is one board's entry in the ECC report.
type eccBoard struct {
	Board           string                `json:"board"`
	VCCBRAMmV       float64               `json:"vccbram_mv"`
	OperatingBRAMMV float64               `json:"operating_bram_mv"`
	ECC             *fleet.BoardECCStatus `json:"ecc"`
}

// eccResponse is the GET payload (and the POST reply).
type eccResponse struct {
	ECC    *fleet.ECCStatus `json:"ecc"`
	Boards []eccBoard       `json:"boards"`
}

func (s *Server) eccReport(k int) eccResponse {
	st := s.scopedStatus(k)
	out := eccResponse{ECC: st.ECC}
	for _, b := range st.Boards {
		out.Boards = append(out.Boards, eccBoard{
			Board:           b.Board,
			VCCBRAMmV:       b.VCCBRAMmV,
			OperatingBRAMMV: b.OperatingBRAMMV,
			ECC:             b.ECC,
		})
	}
	return out
}

func (s *Server) handleECC(w http.ResponseWriter, r *http.Request) {
	k, err := s.poolScope(r)
	if err != nil {
		s.errorJSON(w, http.StatusBadRequest, err.Error())
		return
	}
	switch r.Method {
	case http.MethodGet:
		s.writeJSON(w, http.StatusOK, s.eccReport(k))
	case http.MethodPost:
		var req eccRequest
		if !s.readJSON(w, r, &req) {
			return
		}
		if req.ScrubIntervalMS < 0 {
			s.errorJSON(w, http.StatusBadRequest, "scrub_interval_ms must be positive")
			return
		}
		for _, p := range s.scopedPools(k) {
			if req.Enabled != nil {
				p.SetECCEnabled(*req.Enabled)
			}
			if req.ScrubIntervalMS > 0 {
				p.SetScrubInterval(time.Duration(req.ScrubIntervalMS * float64(time.Millisecond)))
			}
			if req.ScrubNow {
				p.ScrubNow()
			}
		}
		s.writeJSON(w, http.StatusOK, s.eccReport(k))
	}
}

func (s *Server) handleFleetNotFound(w http.ResponseWriter, r *http.Request) {
	s.errorJSON(w, http.StatusNotFound, "unknown fleet endpoint "+r.URL.Path)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.resps[0].Add(1) // bypasses writeJSON's class counting
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(s.renderMetrics()) // a failed write means the scraper left; nothing to answer
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.sched.Status()
	healthy := 0
	for _, b := range st.Boards {
		if b.State == "healthy" {
			healthy++
		}
	}
	code := http.StatusOK
	if healthy == 0 || st.Closed {
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, map[string]any{"healthy_boards": healthy, "boards": len(st.Boards), "closed": st.Closed})
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	class := 0
	switch {
	case code >= 500:
		class = 2
	case code >= 400:
		class = 1
	}
	s.resps[class].Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) errorJSON(w http.ResponseWriter, code int, msg string) {
	s.errorResps.Add(1)
	s.writeJSON(w, code, map[string]any{"error": msg})
}

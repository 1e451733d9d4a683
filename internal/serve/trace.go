package serve

import (
	"net/http"
	"strconv"
	"strings"

	"fpgauv/internal/obs"
)

// spanJSON is one rendered span. Start offsets are nanoseconds relative
// to the trace start so clients read the tree without knowing the
// process epoch; annotations render only when set.
type spanJSON struct {
	Name         string      `json:"name"`
	StartNS      int64       `json:"start_ns"`
	DurNS        int64       `json:"dur_ns"`
	Board        string      `json:"board,omitempty"`
	Attempt      int32       `json:"attempt,omitempty"`
	Batch        int32       `json:"batch,omitempty"`
	Images       int32       `json:"images,omitempty"`
	VCCINTmV     float64     `json:"vccint_mv,omitempty"`
	VCCBRAMmV    float64     `json:"vccbram_mv,omitempty"`
	MACFaults    int64       `json:"mac_faults,omitempty"`
	BRAMFaults   int64       `json:"bram_faults,omitempty"`
	ECCCorrected int64       `json:"ecc_corrected,omitempty"`
	ECCDetected  int64       `json:"ecc_detected,omitempty"`
	ECCSilent    int64       `json:"ecc_silent,omitempty"`
	ExecNS       int64       `json:"exec_ns,omitempty"`
	Err          string      `json:"error,omitempty"`
	Children     []*spanJSON `json:"children,omitempty"`
}

// traceJSON is one rendered trace: identity, bounds and the span tree.
type traceJSON struct {
	TraceID string    `json:"trace_id"`
	Seq     uint64    `json:"seq"`
	DurNS   int64     `json:"dur_ns"`
	Spans   int       `json:"spans"`
	Dropped int       `json:"dropped,omitempty"`
	Root    *spanJSON `json:"root"`
}

// renderTrace builds the nested JSON view of a published (immutable)
// trace. Spans are recorded parents-first, so one forward pass attaches
// every child.
func renderTrace(tr *obs.Trace) traceJSON {
	nodes := make([]*spanJSON, tr.Len())
	var root *spanJSON
	for i := 0; i < tr.Len(); i++ {
		sp := tr.At(i)
		n := &spanJSON{
			Name:         sp.Name(),
			StartNS:      sp.StartNS() - tr.StartNS(),
			DurNS:        sp.DurNS(),
			Board:        sp.Board,
			Attempt:      sp.Attempt,
			Batch:        sp.Batch,
			Images:       sp.Images,
			VCCINTmV:     sp.VCCINTmV,
			VCCBRAMmV:    sp.VCCBRAMmV,
			MACFaults:    sp.MACFaults,
			BRAMFaults:   sp.BRAMFaults,
			ECCCorrected: sp.ECCCorrected,
			ECCDetected:  sp.ECCDetected,
			ECCSilent:    sp.ECCSilent,
			ExecNS:       sp.ExecNS,
			Err:          sp.Err,
		}
		nodes[i] = n
		if p := sp.Parent(); p >= 0 && p < i {
			nodes[p].Children = append(nodes[p].Children, n)
		} else if root == nil {
			root = n
		}
	}
	return traceJSON{
		TraceID: tr.ID(),
		Seq:     tr.Seq(),
		DurNS:   tr.EndNS() - tr.StartNS(),
		Spans:   tr.Len(),
		Dropped: tr.Dropped(),
		Root:    root,
	}
}

// handleTrace serves GET /v1/trace/{id}: one retained trace's span tree.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	tr := s.tracer.Get(id)
	if tr == nil {
		s.errorJSON(w, http.StatusNotFound, "no retained trace "+id)
		return
	}
	s.writeJSON(w, http.StatusOK, renderTrace(tr))
}

// handleTraces serves GET /v1/traces?limit=N: the most recent retained
// traces, newest first (default 20).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit := 20
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			s.errorJSON(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		limit = n
	}
	trs := s.tracer.Recent(limit)
	out := make([]traceJSON, 0, len(trs))
	for _, tr := range trs {
		out = append(out, renderTrace(tr))
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"enabled": s.tracer.Enabled(),
		"traces":  out,
	})
}

// handleEvents serves GET /v1/fleet/events?cursor=K&limit=N[&pool=P]:
// the scheduler's journal after global sequence K — for a cluster that
// is the router tier's route/shed/spare_activate record, while ?pool=P
// selects one pool's board journal (crashes, rails, governor traffic)
// with its own cursor space. The reply's next_cursor feeds the next
// poll; gap reports that the ring dropped events between the caller's
// cursor and the oldest retained entry.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	k, err := s.poolScope(r)
	if err != nil {
		s.errorJSON(w, http.StatusBadRequest, err.Error())
		return
	}
	q := r.URL.Query()
	var cursor uint64
	if v := q.Get("cursor"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.errorJSON(w, http.StatusBadRequest, "cursor must be a non-negative integer")
			return
		}
		cursor = n
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			s.errorJSON(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		limit = n
	}
	jr := s.sched.Journal()
	if k >= 0 {
		jr = s.pools[k].Journal()
	}
	evs, next, gap := jr.Since(cursor, limit)
	if evs == nil {
		evs = []obs.Event{}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"events":      evs,
		"next_cursor": next,
		"gap":         gap,
	})
}

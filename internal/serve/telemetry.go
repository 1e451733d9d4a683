package serve

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	"fpgauv/internal/telemetry"
)

// recordSLO feeds one finished request into the endpoint's latency
// digest and the server's SLO tracker. A caller that went away is
// excluded entirely: the server did nothing wrong and the latency says
// nothing about serving.
func (s *Server) recordSLO(d *telemetry.Digest, err error, lat time.Duration) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	d.Observe(lat.Seconds())
	s.slo.Record(err == nil, lat)
}

// historyResponse is the /v1/fleet/history payload.
type historyResponse struct {
	Board  string            `json:"board"`
	Series string            `json:"series"`
	Res    string            `json:"res"`
	Points []telemetry.Point `json:"points"`
}

// handleHistory serves GET /v1/fleet/history?board=B&series=S[&res=R]
// [&n=N]: the most recent N points of one board series at resolution R
// ("raw", "10s" or "1m"; default raw, all retained points). The pool
// aggregate is addressable as a pseudo-board named after the pool.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	board := q.Get("board")
	if board == "" {
		s.errorJSON(w, http.StatusBadRequest, "board parameter required")
		return
	}
	series := q.Get("series")
	if series == "" {
		s.errorJSON(w, http.StatusBadRequest,
			"series parameter required (one of: "+strings.Join(telemetry.SeriesNames, ", ")+")")
		return
	}
	if !telemetry.ValidSeries(series) {
		s.errorJSON(w, http.StatusBadRequest,
			"unknown series "+strconv.Quote(series)+" (one of: "+strings.Join(telemetry.SeriesNames, ", ")+")")
		return
	}
	res := q.Get("res")
	if res == "" {
		res = telemetry.ResRaw
	}
	if !telemetry.ValidRes(res) {
		s.errorJSON(w, http.StatusBadRequest,
			"res must be one of: "+strings.Join(telemetry.Resolutions, ", "))
		return
	}
	n := 0
	if v := q.Get("n"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil || k <= 0 {
			s.errorJSON(w, http.StatusBadRequest, "n must be a positive integer")
			return
		}
		n = k
	}
	for _, p := range s.pools {
		if _, ok := p.Telemetry().Lookup(board); ok {
			pts := p.Telemetry().Points(board, series, res, n)
			if pts == nil {
				pts = []telemetry.Point{}
			}
			s.writeJSON(w, http.StatusOK, historyResponse{Board: board, Series: series, Res: res, Points: pts})
			return
		}
	}
	s.errorJSON(w, http.StatusNotFound, "unknown board "+strconv.Quote(board))
}

// healthResponse is the /v1/fleet/health payload.
type healthResponse struct {
	Boards   []telemetry.BoardHealth `json:"boards"`
	Degraded int                     `json:"degraded"`
	Watch    int                     `json:"watch"`
	SLO      telemetry.SLOStatus     `json:"slo"`
}

// handleFleetHealth serves GET /v1/fleet/health[?pool=P]: every board's
// health score and state (margin regression surfaces here before it
// becomes crashes) plus the serving SLO burn-rate snapshot.
func (s *Server) handleFleetHealth(w http.ResponseWriter, r *http.Request) {
	k, err := s.poolScope(r)
	if err != nil {
		s.errorJSON(w, http.StatusBadRequest, err.Error())
		return
	}
	out := healthResponse{Boards: []telemetry.BoardHealth{}, SLO: s.slo.Snapshot()}
	for _, p := range s.scopedPools(k) {
		for _, h := range p.BoardHealth() {
			out.Boards = append(out.Boards, h)
			switch h.State {
			case telemetry.HealthDegraded:
				out.Degraded++
			case telemetry.HealthWatch:
				out.Watch++
			}
		}
	}
	s.writeJSON(w, http.StatusOK, out)
}

// postmortemsResponse is the /v1/fleet/postmortems payload.
type postmortemsResponse struct {
	Total       int64                  `json:"total"`
	Postmortems []telemetry.Postmortem `json:"postmortems"`
}

// handlePostmortems serves GET /v1/fleet/postmortems[?limit=N][&pool=P]:
// retained crash postmortems, newest first (default 20 — each carries a
// journal tail and a full telemetry window, so the payload is heavy).
func (s *Server) handlePostmortems(w http.ResponseWriter, r *http.Request) {
	k, err := s.poolScope(r)
	if err != nil {
		s.errorJSON(w, http.StatusBadRequest, err.Error())
		return
	}
	limit := 20
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			s.errorJSON(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		limit = n
	}
	pools := s.scopedPools(k)
	sets := make([][]telemetry.Postmortem, 0, len(pools))
	out := postmortemsResponse{Postmortems: []telemetry.Postmortem{}}
	for _, p := range pools {
		sets = append(sets, p.Postmortems(0))
		out.Total += p.Telemetry().Flight().Total()
	}
	if pms := telemetry.MergePostmortems(limit, sets...); pms != nil {
		out.Postmortems = pms
	}
	s.writeJSON(w, http.StatusOK, out)
}

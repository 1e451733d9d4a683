package serve

import (
	"encoding/json"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"fpgauv/internal/fleet"
	"fpgauv/internal/telemetry"
)

// telemetryFleetConfig is a deterministic 2-board pool: no background
// loops, telemetry sampled explicitly by the test.
func telemetryFleetConfig() fleet.Config {
	cfg := obsFleetConfig(2)
	cfg.Telemetry = telemetry.Config{Interval: -1, HealthWindow: 4}
	return cfg
}

// sample drives n explicit telemetry samples with real elapsed time
// between them (rates need dt > 0).
func sample(s *Server, n int) {
	for i := 0; i < n; i++ {
		s.pools[0].SampleTelemetry()
		time.Sleep(time.Millisecond)
	}
}

// GET /v1/fleet/history serves per-board series at every resolution,
// including the pool pseudo-board.
func TestServeHistoryEndpoint(t *testing.T) {
	s, ts := newTestServer(t, telemetryFleetConfig(), Config{})
	sample(s, 5)
	board := s.pools[0].Telemetry().Boards()[0]

	var page historyResponse
	getJSON(t, ts.URL+"/v1/fleet/history?board="+url.QueryEscape(board)+"&series=vccint_mv&n=3", &page)
	if page.Board != board || page.Series != "vccint_mv" || page.Res != telemetry.ResRaw {
		t.Fatalf("page header = %+v", page)
	}
	if len(page.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(page.Points))
	}
	if p := page.Points[2]; p.Last < 500 || p.Last > 900 {
		t.Fatalf("vccint sample = %g mV, want a plausible rail", p.Last)
	}

	// Rollup resolution and the pool aggregate pseudo-board.
	var rollup historyResponse
	getJSON(t, ts.URL+"/v1/fleet/history?board="+url.QueryEscape(s.pools[0].Name())+"&series=power_w&res=10s", &rollup)
	if len(rollup.Points) == 0 || rollup.Points[len(rollup.Points)-1].Count == 0 {
		t.Fatalf("pool aggregate rollup = %+v, want populated open bucket", rollup.Points)
	}
	if rollup.Points[len(rollup.Points)-1].Mean <= 0 {
		t.Fatal("pool power mean not positive")
	}
}

// The degraded-flip regression, end to end over HTTP: injected Vmin
// drift plus a corrected-ECC ramp must surface the board as degraded in
// /v1/fleet/health, and an injected crash must yield a postmortem in
// /v1/fleet/postmortems carrying the pre-crash window, journal tail and
// trace id.
func TestServeHealthDegradedFlipAndPostmortem(t *testing.T) {
	s, ts := newTestServer(t, telemetryFleetConfig(), Config{Trace: true})
	sample(s, 6)

	var before healthResponse
	getJSON(t, ts.URL+"/v1/fleet/health", &before)
	if len(before.Boards) != 2 || before.Degraded != 0 {
		t.Fatalf("baseline health = %+v", before)
	}
	for _, b := range before.Boards {
		if b.State != telemetry.HealthOK {
			t.Fatalf("%s baseline = %s, want ok", b.Board, b.State)
		}
	}
	// SLO snapshot rides along with sane defaults.
	if before.SLO.AvailabilityTarget != 0.999 || len(before.SLO.Objectives) != 2 {
		t.Fatalf("slo snapshot = %+v", before.SLO)
	}

	// Margin regression on board 1.
	if err := s.pools[0].InjectMarginDrift(1, 12, 500); err != nil {
		t.Fatal(err)
	}
	sample(s, 10)
	var after healthResponse
	getJSON(t, ts.URL+"/v1/fleet/health", &after)
	if after.Degraded != 1 {
		t.Fatalf("degraded = %d, want 1 (%+v)", after.Degraded, after.Boards)
	}
	if after.Boards[1].State != telemetry.HealthDegraded || len(after.Boards[1].Reasons) == 0 {
		t.Fatalf("board 1 health = %+v", after.Boards[1])
	}
	if after.Boards[0].State != telemetry.HealthOK {
		t.Fatalf("board 0 health = %+v, want ok", after.Boards[0])
	}

	// Crash board 0 under a caller-chosen trace id. The healthy board may
	// pop the job before the sabotaged one (the injection stays armed), so
	// retry until the schedule lands it on board 0.
	if err := s.pools[0].InjectFailures(0, 2); err != nil {
		t.Fatal(err)
	}
	var pms postmortemsResponse
	for try := 0; try < 25 && pms.Total < 1; try++ {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/classify", strings.NewReader(`{"seed":3}`))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Uvolt-Trace", "postmortem-probe_01")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("traced classify status %d", resp.StatusCode)
		}
		getJSON(t, ts.URL+"/v1/fleet/postmortems?limit=5", &pms)
	}
	if pms.Total < 1 || len(pms.Postmortems) < 1 {
		t.Fatalf("postmortems = %+v", pms)
	}
	pm := pms.Postmortems[0]
	if pm.TraceID != "postmortem-probe_01" {
		t.Fatalf("postmortem trace = %q, want the caller-chosen id", pm.TraceID)
	}
	if len(pm.Events) == 0 {
		t.Fatal("postmortem journal tail empty")
	}
	sawCrash := false
	for _, ev := range pm.Events {
		if ev.Kind == "crash" {
			sawCrash = true
		}
	}
	if !sawCrash {
		t.Fatal("postmortem journal tail missing the crash event")
	}
	if pts := pm.Window[telemetry.SeriesVCCINT]; len(pts) == 0 {
		t.Fatal("postmortem telemetry window missing vccint series")
	}
}

// Request outcomes feed the SLO tracker and the endpoint digests; both
// surface on /metrics and in the /v1/fleet/health SLO block.
func TestServeSLOTracking(t *testing.T) {
	scfg := Config{SLO: telemetry.SLOConfig{
		AvailabilityTarget: 0.9,
		LatencyTarget:      time.Nanosecond, // everything is "slow": burns latency budget
		LatencyGoal:        0.5,
		BurnThreshold:      1,
	}}
	s, ts := newTestServer(t, telemetryFleetConfig(), scfg)
	for i := 0; i < 4; i++ {
		postJSON(t, ts.URL+"/v1/classify", classifyRequest{Seed: int64(i + 1)}).Body.Close()
	}

	var health healthResponse
	getJSON(t, ts.URL+"/v1/fleet/health", &health)
	if health.SLO.AvailabilityTarget != 0.9 || health.SLO.BurnThreshold != 1 {
		t.Fatalf("slo config not plumbed: %+v", health.SLO)
	}
	lat := health.SLO.Objectives[1]
	if lat.Objective != "latency" {
		t.Fatalf("objective order = %+v", health.SLO.Objectives)
	}
	if lat.Windows[0].Total < 4 {
		t.Fatalf("latency window total = %d, want >= 4 served requests", lat.Windows[0].Total)
	}
	if lat.Windows[0].Bad != lat.Windows[0].Total {
		t.Fatalf("every request should breach the 1ns target: %+v", lat.Windows[0])
	}
	if !lat.Burning || lat.BurnEvents < 1 {
		t.Fatalf("latency objective not burning: %+v", lat)
	}

	// The endpoint digest observed the same requests.
	if got := s.classifyDigest.Count(); got < 4 {
		t.Fatalf("classify digest count = %d, want >= 4", got)
	}

	// slo_burn reached the journal (rising edge, exactly once).
	var events eventsPage
	getJSON(t, ts.URL+"/v1/fleet/events?pool=0", &events)
	burns := 0
	for _, ev := range events.Events {
		if ev.Kind == "slo_burn" {
			burns++
		}
	}
	if burns != 1 {
		t.Fatalf("journaled slo_burn events = %d, want 1", burns)
	}
}

// getJSON fetches a URL and decodes its 200 JSON body into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp := getURL(t, url)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

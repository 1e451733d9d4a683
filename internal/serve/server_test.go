package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fpgauv/internal/fleet"
)

// newTestServer brings up a 3-board tiny fleet behind an httptest server.
func newTestServer(t *testing.T, fcfg fleet.Config, scfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if fcfg.Boards == 0 {
		fcfg = fleet.Config{Boards: 3, Tiny: true, Images: 4, CharRepeats: 1,
			MonitorInterval: 5 * time.Millisecond}
	}
	pool, err := fleet.New(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	s := New(pool, scfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// newGatedTestServer is newTestServer over a gated pool (batch_test.go):
// passes stop at the gate until the test releases them.
func newGatedTestServer(t *testing.T, boards int, scfg Config) (*Server, *httptest.Server, *gatedSched) {
	t.Helper()
	g := newGatedSched(t, boards)
	s := New(g, scfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		g.open()
		ts.Close()
		s.Close()
	})
	return s, ts, g
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// Concurrent classify calls must all succeed and coalesce into fewer
// accelerator passes than requests: twelve calls on three boards leave
// as three singles and, when the first lane frees, one pass for the nine
// held.
func TestServeClassifyBatches(t *testing.T) {
	const calls, boards = 12, 3
	s, ts, g := newGatedTestServer(t, boards, Config{BatchSize: 16, BatchWindow: time.Hour})

	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/classify", classifyRequest{})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status = %d, want 200", resp.StatusCode)
				resp.Body.Close()
				return
			}
			out := decode[classifyResponse](t, resp)
			if out.AccuracyPct <= 0 {
				t.Errorf("accuracy = %.1f, want > 0", out.AccuracyPct)
			}
			if out.BatchSize != 1 && out.BatchSize != calls-boards {
				t.Errorf("batch_size = %d, want 1 or %d", out.BatchSize, calls-boards)
			}
			if out.VCCINTmV > 620 {
				t.Errorf("served at %.0f mV, want underscaled (<= 620)", out.VCCINTmV)
			}
		}()
	}
	for i := 0; i < boards; i++ {
		g.nextPass(t)
	}
	waitPending(t, s.batch, &s.batch.cls, calls-boards)
	g.noPass(t)
	g.open()
	wg.Wait()

	if runs := s.batch.batches.Load(); runs != boards+1 {
		t.Errorf("batches = %d for %d calls, want %d", runs, calls, boards+1)
	}
	if got := s.batch.coalesced.Load(); got != calls-boards-1 {
		t.Errorf("coalesced = %d, want %d", got, calls-boards-1)
	}
}

// A pinned seed asks for a specific fault stream, so it must get a
// dedicated accelerator pass, never a batch-mate's.
func TestServePinnedSeedBypassesBatching(t *testing.T) {
	s, ts := newTestServer(t, fleet.Config{}, Config{BatchSize: 8, BatchWindow: 50 * time.Millisecond})

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/classify", classifyRequest{Seed: seed})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status = %d, want 200", resp.StatusCode)
				resp.Body.Close()
				return
			}
			if out := decode[classifyResponse](t, resp); out.BatchSize != 1 {
				t.Errorf("pinned seed coalesced: batch_size = %d, want 1", out.BatchSize)
			}
		}(int64(i + 1))
	}
	wg.Wait()

	if got := s.batch.batches.Load(); got != 6 {
		t.Errorf("batches = %d, want 6 dedicated passes", got)
	}
	if got := s.batch.coalesced.Load(); got != 0 {
		t.Errorf("coalesced = %d, want 0", got)
	}
}

// The status endpoint reports every board with its characterization.
func TestServeFleetStatus(t *testing.T) {
	_, ts := newTestServer(t, fleet.Config{}, Config{})
	resp, err := http.Get(ts.URL + "/v1/fleet/status")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	st := decode[fleet.Status](t, resp)
	if len(st.Boards) != 3 {
		t.Fatalf("boards = %d, want 3", len(st.Boards))
	}
	for _, b := range st.Boards {
		if b.OperatingMV > 620 || b.OperatingMV <= b.VcrashMV {
			t.Errorf("%s: operating point %.0f mV outside (Vcrash, 620]", b.Board, b.OperatingMV)
		}
	}
}

// Driving a board below Vcrash over HTTP induces a crash the fleet heals;
// classify keeps answering throughout.
func TestServeVoltageInducedCrashHeals(t *testing.T) {
	_, ts := newTestServer(t, fleet.Config{}, Config{})

	resp := postJSON(t, ts.URL+"/v1/fleet/voltage", voltageRequest{Board: 0, MV: 500})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("voltage status = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()

	// Traffic keeps flowing while the monitor heals board 0.
	for i := 0; i < 5; i++ {
		resp := postJSON(t, ts.URL+"/v1/classify", classifyRequest{Seed: int64(i + 1)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("classify during crash: status = %d", resp.StatusCode)
		}
		resp.Body.Close()
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/fleet/status")
		if err != nil {
			t.Fatal(err)
		}
		st := decode[fleet.Status](t, resp)
		if st.Redeploys >= 1 && st.Boards[0].State == "healthy" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("board 0 never healed: %+v", st.Boards[0])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Voltage endpoint validation: bad board, bad mv, unsafe operating point.
func TestServeVoltageValidation(t *testing.T) {
	_, ts := newTestServer(t, fleet.Config{}, Config{})
	for _, tc := range []voltageRequest{
		{Board: 99, MV: 600},
		{Board: 0, MV: -5},
		{Board: 0, MV: 400, Operating: true}, // below Vcrash as a steady-state point
	} {
		resp := postJSON(t, ts.URL+"/v1/fleet/voltage", tc)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: status = %d, want 400", tc, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// Method and body validation on the classify endpoint.
func TestServeClassifyValidation(t *testing.T) {
	_, ts := newTestServer(t, fleet.Config{}, Config{})
	resp, err := http.Get(ts.URL + "/v1/classify")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/classify: status = %d, want 405", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = http.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader("{bad"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// The metrics endpoint exposes the fleet gauges and counters in
// Prometheus text format.
func TestServeMetrics(t *testing.T) {
	_, ts := newTestServer(t, fleet.Config{}, Config{})
	resp := postJSON(t, ts.URL+"/v1/classify", classifyRequest{})
	resp.Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content-type = %q, want text/plain", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"uvolt_fleet_boards 3",
		"uvolt_fleet_served_total",
		"uvolt_fleet_canceled_total",
		"uvolt_board_vccint_millivolts{board=\"platform-A#0\"}",
		"uvolt_board_power_watts{board=\"platform-B#1\",rail=\"vccint\"}",
		"uvolt_board_throughput_gops",
		"uvolt_governor_enabled",
		"uvolt_governor_saved_watts",
		"uvolt_governor_operating_millivolts{board=\"platform-A#0\"}",
		"uvolt_governor_baseline_millivolts{board=\"platform-B#1\"}",
		"uvolt_http_requests_total{path=\"/v1/classify\"} 1",
		"uvolt_http_requests_total{path=\"/v1/fleet/governor\"}",
		"uvolt_batch_runs_total",
		"uvolt_batch_canceled_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// The governor endpoint reports per-board adaptive-voltage state, and
// POST toggles and tunes the loops at runtime.
func TestServeGovernorEndpoint(t *testing.T) {
	_, ts := newTestServer(t, fleet.Config{
		Boards: 3, Tiny: true, Images: 4, CharRepeats: 1,
		MonitorInterval: -1,
		Governor:        fleet.GovernorConfig{Interval: -1},
	}, Config{})

	resp, err := http.Get(ts.URL + "/v1/fleet/governor")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status = %d, want 200", resp.StatusCode)
	}
	var rep struct {
		Governor *fleet.GovernorStatus `json:"governor"`
		Boards   []struct {
			Board    string                     `json:"board"`
			Governor *fleet.BoardGovernorStatus `json:"governor"`
		} `json:"boards"`
	}
	func() {
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
	}()
	if rep.Governor == nil || rep.Governor.Enabled {
		t.Fatalf("governor should report present and disabled: %+v", rep.Governor)
	}
	if len(rep.Boards) != 3 {
		t.Fatalf("boards = %d, want 3", len(rep.Boards))
	}
	for _, b := range rep.Boards {
		if b.Governor == nil {
			t.Fatalf("%s: no governor state", b.Board)
		}
		if b.Governor.BaselineMV <= 0 || b.Governor.FloorMV <= 0 {
			t.Errorf("%s: incomplete governor state: %+v", b.Board, b.Governor)
		}
	}

	// Enable + tune in one POST.
	enabled := true
	resp = postJSON(t, ts.URL+"/v1/fleet/governor", map[string]any{
		"enabled": enabled, "step_mv": 3.0, "probe_images": 8,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status = %d, want 200", resp.StatusCode)
	}
	func() {
		defer resp.Body.Close()
		rep.Governor = nil
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
	}()
	if !rep.Governor.Enabled || rep.Governor.StepMV != 3 || rep.Governor.ProbeImages != 8 {
		t.Errorf("POST did not apply: %+v", rep.Governor)
	}

	// Invalid tuning is rejected.
	resp = postJSON(t, ts.URL+"/v1/fleet/governor", map[string]any{"step_mv": -2.0})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative tuning: status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Method validation.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/fleet/governor", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE: status = %d, want 405", resp.StatusCode)
	}
	resp.Body.Close()
}

// After Close, classify returns 503 and queued work was not lost.
func TestServeShutdown(t *testing.T) {
	pool, err := fleet.New(fleet.Config{Boards: 3, Tiny: true, Images: 4, CharRepeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := New(pool, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/classify", classifyRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-shutdown classify: status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	s.Close()
	resp = postJSON(t, ts.URL+"/v1/classify", classifyRequest{})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown classify: status = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
}

package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fpgauv/internal/fleet"
)

// eccFleetConfig is a 1-board protected fleet with no background loops.
func eccFleetConfig(eccOn bool) fleet.Config {
	return fleet.Config{
		Boards: 1, Tiny: true, Images: 4, CharRepeats: 1,
		MonitorInterval: -1,
		ECC:             fleet.ECCConfig{Enabled: eccOn, ScrubInterval: -1},
		Governor:        fleet.GovernorConfig{Interval: -1},
	}
}

// GET /v1/fleet/ecc reports the protection state; POST toggles it,
// re-tunes the scrub interval and can run a synchronous scrub pass.
func TestServeECCEndpoint(t *testing.T) {
	_, ts := newTestServer(t, eccFleetConfig(false), Config{})

	resp, err := http.Get(ts.URL + "/v1/fleet/ecc")
	if err != nil {
		t.Fatal(err)
	}
	rep := decode[eccResponse](t, resp)
	if rep.ECC == nil || rep.ECC.Enabled {
		t.Fatalf("fresh pool should report protection disabled: %+v", rep.ECC)
	}
	if len(rep.Boards) != 1 || rep.Boards[0].ECC == nil {
		t.Fatalf("per-board ECC missing: %+v", rep.Boards)
	}
	if rep.Boards[0].VCCBRAMmV < 840 {
		t.Errorf("VCCBRAM %.1f mV, want nominal at startup", rep.Boards[0].VCCBRAMmV)
	}
	if rep.Boards[0].ECC.Words == 0 {
		t.Error("protected image size not reported")
	}

	on := true
	resp = postJSON(t, ts.URL+"/v1/fleet/ecc", eccRequest{
		Enabled: &on, ScrubIntervalMS: 42, ScrubNow: true,
	})
	rep = decode[eccResponse](t, resp)
	if !rep.ECC.Enabled {
		t.Fatal("enable did not take")
	}
	if rep.ECC.ScrubIntervalMS != 42 {
		t.Errorf("scrub interval %.1f ms, want 42", rep.ECC.ScrubIntervalMS)
	}
	if rep.ECC.ScrubPasses != 1 || rep.Boards[0].ECC.ScrubPasses != 1 {
		t.Errorf("scrub_now did not run a pass: %+v", rep.ECC)
	}

	// Validation: negative scrub interval rejected.
	resp = postJSON(t, ts.URL+"/v1/fleet/ecc", map[string]any{"scrub_interval_ms": -5})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative interval: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// The ECC counters must reach /metrics once protected traffic runs.
func TestServeECCMetrics(t *testing.T) {
	cfg := eccFleetConfig(true)
	cfg.Governor = fleet.GovernorConfig{Interval: -1, BRAM: true}
	_, ts := newTestServer(t, cfg, Config{})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"uvolt_ecc_enabled 1",
		"uvolt_ecc_corrected_total",
		"uvolt_ecc_uncorrectable_total",
		"uvolt_ecc_silent_total",
		"uvolt_scrub_passes_total",
		"uvolt_scrub_corrected_total",
		"uvolt_scrub_reloaded_total",
		"uvolt_board_vccbram_millivolts{board=",
		"uvolt_governor_bram_probes_total",
		"uvolt_governor_bram_operating_millivolts{board=",
		`uvolt_http_requests_total{path="/v1/fleet/ecc"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// The API audit gate: every endpoint must reject wrong methods with the
// JSON error shape, reject malformed bodies with 400, and unknown fleet
// paths must 404 through errorJSON — not the mux's plain-text page. The
// audit runs against both schedulers the front-end accepts — a single
// pool and a cluster router — because the error contract must not
// depend on what is behind the Scheduler interface.
func TestServeEndpointAudit(t *testing.T) {
	t.Run("pool", func(t *testing.T) {
		s, ts := newTestServer(t, eccFleetConfig(false), Config{BatchWindow: time.Millisecond})
		auditEndpoints(t, s, ts)
	})
	t.Run("cluster", func(t *testing.T) {
		pc := eccFleetConfig(false)
		s, ts := newClusterTestServer(t, clusterConfig(2, pc), Config{BatchWindow: time.Millisecond})
		auditEndpoints(t, s, ts)
	})
}

func auditEndpoints(t *testing.T, s *Server, ts *httptest.Server) {
	do := func(method, path, body string) *http.Response {
		t.Helper()
		var rd io.Reader
		if chunked := strings.TrimPrefix(body, "chunked:"); chunked != body {
			// No declared Content-Length: the limit is met while reading.
			rd = struct{ io.Reader }{strings.NewReader(chunked)}
		} else if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// A refused method never reaches the handler: GET /v1/classify with
	// tracing on opens no trace and publishes none.
	s.Tracer().SetEnabled(true)
	resp := do(http.MethodGet, "/v1/classify", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("X-Uvolt-Trace") != "" {
		t.Errorf("GET /v1/classify: status %d, trace header %q; want 405 and none",
			resp.StatusCode, resp.Header.Get("X-Uvolt-Trace"))
	}
	if trs := s.Tracer().Recent(1); len(trs) != 0 {
		t.Errorf("a 405 on /v1/classify published trace %s", trs[0].ID())
	}
	s.Tracer().SetEnabled(false)
	before := requestsByPath(t, ts)

	image := string(pixelsBody(testImage(s, 1)))
	huge := `{"pixels":[` + strings.Repeat("0, ", 1<<16) + `0]}`
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		// Bodies over the limit: 413, from the declared length or while
		// reading. The control endpoints stop at 64 KiB.
		{"infer body too large", http.MethodPost, "/v1/infer", huge, http.StatusRequestEntityTooLarge},
		{"infer chunked body too large", http.MethodPost, "/v1/infer", "chunked:" + huge, http.StatusRequestEntityTooLarge},
		{"classify body too large", http.MethodPost, "/v1/classify", huge, http.StatusRequestEntityTooLarge},
		{"classify chunked body too large", http.MethodPost, "/v1/classify", "chunked:" + huge, http.StatusRequestEntityTooLarge},
		{"voltage body too large", http.MethodPost, "/v1/fleet/voltage", huge, http.StatusRequestEntityTooLarge},
		{"governor body too large", http.MethodPost, "/v1/fleet/governor", huge, http.StatusRequestEntityTooLarge},
		{"ecc body too large", http.MethodPost, "/v1/fleet/ecc", "chunked:" + huge, http.StatusRequestEntityTooLarge},
		// Bytes after the JSON value.
		{"infer trailing garbage", http.MethodPost, "/v1/infer", image + " x", http.StatusBadRequest},
		{"infer two values", http.MethodPost, "/v1/infer", image + image, http.StatusBadRequest},
		{"classify trailing garbage", http.MethodPost, "/v1/classify", `{"seed":1} x`, http.StatusBadRequest},
		{"voltage trailing garbage", http.MethodPost, "/v1/fleet/voltage", `{"board":0,"mv":850}{}`, http.StatusBadRequest},
		{"governor trailing garbage", http.MethodPost, "/v1/fleet/governor", `{} x`, http.StatusBadRequest},
		{"ecc trailing garbage", http.MethodPost, "/v1/fleet/ecc", `{}]`, http.StatusBadRequest},
		// Wrong method on every endpoint.
		{"classify GET", http.MethodGet, "/v1/classify", "", http.StatusMethodNotAllowed},
		{"infer GET", http.MethodGet, "/v1/infer", "", http.StatusMethodNotAllowed},
		{"status POST", http.MethodPost, "/v1/fleet/status", "{}", http.StatusMethodNotAllowed},
		{"voltage GET", http.MethodGet, "/v1/fleet/voltage", "", http.StatusMethodNotAllowed},
		{"governor DELETE", http.MethodDelete, "/v1/fleet/governor", "", http.StatusMethodNotAllowed},
		{"ecc DELETE", http.MethodDelete, "/v1/fleet/ecc", "", http.StatusMethodNotAllowed},
		{"metrics POST", http.MethodPost, "/metrics", "", http.StatusMethodNotAllowed},
		{"trace POST", http.MethodPost, "/v1/trace/x", "{}", http.StatusMethodNotAllowed},
		{"traces DELETE", http.MethodDelete, "/v1/traces", "", http.StatusMethodNotAllowed},
		{"events POST", http.MethodPost, "/v1/fleet/events", "{}", http.StatusMethodNotAllowed},
		{"history DELETE", http.MethodDelete, "/v1/fleet/history", "", http.StatusMethodNotAllowed},
		{"health PUT", http.MethodPut, "/v1/fleet/health", "{}", http.StatusMethodNotAllowed},
		{"postmortems DELETE", http.MethodDelete, "/v1/fleet/postmortems", "", http.StatusMethodNotAllowed},
		// The method is refused before the handler parses ?pool=.
		{"governor DELETE bad pool", http.MethodDelete, "/v1/fleet/governor?pool=9", "", http.StatusMethodNotAllowed},
		// Malformed bodies on every POST endpoint.
		{"classify bad body", http.MethodPost, "/v1/classify", "{nope", http.StatusBadRequest},
		{"infer bad body", http.MethodPost, "/v1/infer", "{nope", http.StatusBadRequest},
		{"voltage bad body", http.MethodPost, "/v1/fleet/voltage", "{nope", http.StatusBadRequest},
		{"governor bad body", http.MethodPost, "/v1/fleet/governor", "{nope", http.StatusBadRequest},
		{"ecc bad body", http.MethodPost, "/v1/fleet/ecc", "{nope", http.StatusBadRequest},
		// Domain validation.
		{"voltage zero mv", http.MethodPost, "/v1/fleet/voltage", `{"board":0,"mv":0}`, http.StatusBadRequest},
		{"voltage bad board", http.MethodPost, "/v1/fleet/voltage", `{"board":99,"mv":600}`, http.StatusBadRequest},
		{"governor negative", http.MethodPost, "/v1/fleet/governor", `{"step_mv":-1}`, http.StatusBadRequest},
		// Unknown fleet paths: JSON 404 from the subtree handler.
		{"fleet not found", http.MethodGet, "/v1/fleet/nope", "", http.StatusNotFound},
		{"fleet root", http.MethodGet, "/v1/fleet/", "", http.StatusNotFound},
		{"fleet not found POST", http.MethodPost, "/v1/fleet/ecc/extra", "{}", http.StatusNotFound},
		// Pool scoping: out-of-range and non-integer ?pool= values get
		// the JSON 400 shape on every scoped endpoint.
		{"status pool out of range", http.MethodGet, "/v1/fleet/status?pool=9", "", http.StatusBadRequest},
		{"status pool negative", http.MethodGet, "/v1/fleet/status?pool=-1", "", http.StatusBadRequest},
		{"status pool not int", http.MethodGet, "/v1/fleet/status?pool=x", "", http.StatusBadRequest},
		{"events pool out of range", http.MethodGet, "/v1/fleet/events?pool=9", "", http.StatusBadRequest},
		{"events pool not int", http.MethodGet, "/v1/fleet/events?pool=x", "", http.StatusBadRequest},
		{"governor pool out of range", http.MethodGet, "/v1/fleet/governor?pool=9", "", http.StatusBadRequest},
		{"ecc pool out of range", http.MethodGet, "/v1/fleet/ecc?pool=9", "", http.StatusBadRequest},
		{"voltage pool out of range", http.MethodPost, "/v1/fleet/voltage?pool=9", `{"board":0,"mv":600}`, http.StatusBadRequest},
		// Traces: limit must be a positive integer.
		{"traces POST", http.MethodPost, "/v1/traces", "{}", http.StatusMethodNotAllowed},
		{"traces bad limit", http.MethodGet, "/v1/traces?limit=x", "", http.StatusBadRequest},
		{"traces zero limit", http.MethodGet, "/v1/traces?limit=0", "", http.StatusBadRequest},
		{"traces negative limit", http.MethodGet, "/v1/traces?limit=-3", "", http.StatusBadRequest},
		// Telemetry history: required params, series/res whitelists,
		// positive n, unknown board 404.
		{"history POST", http.MethodPost, "/v1/fleet/history", "{}", http.StatusMethodNotAllowed},
		{"history no board", http.MethodGet, "/v1/fleet/history?series=vccint_mv", "", http.StatusBadRequest},
		{"history no series", http.MethodGet, "/v1/fleet/history?board=b", "", http.StatusBadRequest},
		{"history bad series", http.MethodGet, "/v1/fleet/history?board=b&series=nope", "", http.StatusBadRequest},
		{"history bad res", http.MethodGet, "/v1/fleet/history?board=b&series=vccint_mv&res=2h", "", http.StatusBadRequest},
		{"history bad n", http.MethodGet, "/v1/fleet/history?board=b&series=vccint_mv&n=x", "", http.StatusBadRequest},
		{"history zero n", http.MethodGet, "/v1/fleet/history?board=b&series=vccint_mv&n=0", "", http.StatusBadRequest},
		{"history unknown board", http.MethodGet, "/v1/fleet/history?board=nope&series=vccint_mv", "", http.StatusNotFound},
		// Fleet health and postmortems.
		{"health POST", http.MethodPost, "/v1/fleet/health", "{}", http.StatusMethodNotAllowed},
		{"health pool out of range", http.MethodGet, "/v1/fleet/health?pool=9", "", http.StatusBadRequest},
		{"health pool not int", http.MethodGet, "/v1/fleet/health?pool=x", "", http.StatusBadRequest},
		{"postmortems POST", http.MethodPost, "/v1/fleet/postmortems", "{}", http.StatusMethodNotAllowed},
		{"postmortems bad limit", http.MethodGet, "/v1/fleet/postmortems?limit=x", "", http.StatusBadRequest},
		{"postmortems zero limit", http.MethodGet, "/v1/fleet/postmortems?limit=0", "", http.StatusBadRequest},
		{"postmortems pool out of range", http.MethodGet, "/v1/fleet/postmortems?pool=9", "", http.StatusBadRequest},
		{"history subpath not found", http.MethodGet, "/v1/fleet/history/extra", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		resp := do(tc.method, tc.path, tc.body)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (body %q)", tc.name, resp.StatusCode, tc.want, body)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", tc.name, ct)
		}
		var errBody struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &errBody); err != nil || errBody.Error == "" {
			t.Errorf("%s: error body not in the JSON error shape: %q", tc.name, body)
		}
	}

	// Every case — a 405 included — counts under its route's path label;
	// /healthz and unknown /v1/fleet/* paths count under none.
	resp = do(http.MethodGet, "/healthz", "")
	resp.Body.Close()
	want := map[string]float64{"/metrics": 1} // the scrape below
	for _, tc := range cases {
		if label := routeLabel(tc.path); label != "" {
			want[label]++
		}
	}
	after := requestsByPath(t, ts)
	for path, n := range after {
		if d := n - before[path]; d != want[path] {
			t.Errorf("uvolt_http_requests_total{path=%q} rose by %v, want %v", path, d, want[path])
		}
	}
	if len(after) != 13 {
		t.Errorf("uvolt_http_requests_total has %d path labels, want 13: %v", len(after), after)
	}
}

// routeLabel is the uvolt_http_requests_total path label a request
// path counts under ("" for none).
func routeLabel(path string) string {
	path, _, _ = strings.Cut(path, "?")
	switch path {
	case "/v1/classify", "/v1/infer", "/v1/traces", "/metrics",
		"/v1/fleet/status", "/v1/fleet/voltage", "/v1/fleet/governor", "/v1/fleet/ecc",
		"/v1/fleet/events", "/v1/fleet/history", "/v1/fleet/health", "/v1/fleet/postmortems":
		return path
	}
	if strings.HasPrefix(path, "/v1/trace/") {
		return "/v1/trace"
	}
	return ""
}

// requestsByPath scrapes /metrics for uvolt_http_requests_total by path.
func requestsByPath(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	_, _, samples := parseExposition(t, scrape(t, ts))
	out := map[string]float64{}
	for _, smp := range samples {
		if smp.name == "uvolt_http_requests_total" {
			out[smp.labels["path"]] = smp.value
		}
	}
	return out
}

package serve

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// metricSample is one parsed exposition line.
type metricSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseExposition splits Prometheus text format into HELP/TYPE
// declarations and samples, failing the test on any malformed line.
func parseExposition(t *testing.T, text string) (help, typ map[string]string, samples []metricSample) {
	t.Helper()
	help = map[string]string{}
	typ = map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, doc, ok := strings.Cut(rest, " ")
			if !ok || doc == "" {
				t.Fatalf("HELP without text: %q", line)
			}
			help[name] = doc
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("malformed TYPE: %q", line)
			}
			typ[fields[0]] = fields[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		samples = append(samples, parseSample(t, line))
	}
	return help, typ, samples
}

func parseSample(t *testing.T, line string) metricSample {
	t.Helper()
	s := metricSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		s.name = line[:i]
		end := strings.IndexByte(line, '}')
		if end < i {
			t.Fatalf("unterminated label set: %q", line)
		}
		for _, pair := range strings.Split(line[i+1:end], ",") {
			if pair == "" {
				continue
			}
			k, v, ok := strings.Cut(pair, "=")
			if !ok {
				t.Fatalf("malformed label %q in %q", pair, line)
			}
			unq, err := strconv.Unquote(v)
			if err != nil {
				t.Fatalf("unquoted label value %q in %q", v, line)
			}
			s.labels[k] = unq
		}
		rest = strings.TrimSpace(line[end+1:])
	} else {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed sample: %q", line)
		}
		s.name = name
		rest = val
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		t.Fatalf("bad value in %q: %v", line, err)
	}
	s.value = v
	return s
}

// family resolves a sample name to its declared metric family:
// histogram series (_bucket/_sum/_count) roll up to the base name.
func family(name string, typ map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base := strings.TrimSuffix(name, suffix); base != name && typ[base] == "histogram" {
			return base
		}
	}
	return name
}

// labelKey renders a sample's labels minus le — the identity of one
// histogram series.
func labelKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
		b.WriteByte(';')
	}
	return b.String()
}

// The full /metrics exposition must conform: every sample belongs to a
// family with HELP and TYPE, histogram buckets are cumulative and
// monotone, and each series' le="+Inf" bucket equals its _count.
func TestMetricsExpositionConformance(t *testing.T) {
	s, ts := newTestServer(t, obsFleetConfig(2), Config{Trace: true, BatchWindow: time.Millisecond})

	// Drive enough traffic to populate histograms, journal events and
	// every response class.
	if err := s.pools[0].InjectFailures(0, 2); err != nil {
		t.Fatal(err)
	}
	pixels := testImage(s, 9)
	postJSON(t, ts.URL+"/v1/infer", inferRequest{Pixels: pixels, Seed: 77}).Body.Close()
	postJSON(t, ts.URL+"/v1/classify", classifyRequest{Seed: 13}).Body.Close()
	postJSON(t, ts.URL+"/v1/infer", inferRequest{Pixels: []float32{1}}).Body.Close() // 400
	getURL(t, ts.URL+"/v1/trace/absent").Body.Close()                                // 404

	resp := getURL(t, ts.URL+"/metrics")
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	help, typ, samples := parseExposition(t, sb.String())
	if len(samples) == 0 {
		t.Fatal("empty exposition")
	}

	// Every family carries both HELP and TYPE.
	for _, smp := range samples {
		fam := family(smp.name, typ)
		if help[fam] == "" {
			t.Errorf("family %s (sample %s) has no HELP", fam, smp.name)
		}
		if typ[fam] == "" {
			t.Errorf("family %s (sample %s) has no TYPE", fam, smp.name)
		}
	}

	// Families the PR promises must be present.
	for _, want := range []string{
		"uvolt_build_info", "uvolt_uptime_seconds", "uvolt_http_responses_total",
		"uvolt_events_total", "uvolt_stage_seconds", "uvolt_classify_latency_seconds",
		"uvolt_infer_latency_seconds", "uvolt_sparsity", "uvolt_backend_info",
		"uvolt_temperature_celsius", "uvolt_power_watts",
		"uvolt_board_health_score", "uvolt_board_degraded", "uvolt_postmortems_total",
		"uvolt_slo_availability_target", "uvolt_slo_latency_target_seconds",
		"uvolt_slo_burn_rate", "uvolt_slo_burning", "uvolt_slo_burn_events_total",
		"uvolt_endpoint_latency_seconds", "uvolt_pool_job_latency_seconds",
		"uvolt_gemm_workers", "uvolt_gemm_pool_jobs_total",
		"uvolt_gemm_pool_offers_total", "uvolt_gemm_pool_tiles_total",
	} {
		if typ[want] == "" {
			t.Errorf("family %s missing from exposition", want)
		}
	}

	// The tile-pool counters split offers by outcome and tiles by runner.
	poolSeries := map[string]bool{}
	for _, smp := range samples {
		if strings.HasPrefix(smp.name, "uvolt_gemm_pool_") {
			poolSeries[smp.name+"/"+smp.labels["result"]+smp.labels["by"]] = true
		}
	}
	for _, want := range []string{
		"uvolt_gemm_pool_jobs_total/",
		"uvolt_gemm_pool_offers_total/accepted", "uvolt_gemm_pool_offers_total/refused",
		"uvolt_gemm_pool_tiles_total/caller", "uvolt_gemm_pool_tiles_total/helper",
	} {
		if !poolSeries[want] {
			t.Errorf("tile-pool series %s missing from exposition", want)
		}
	}
	if len(poolSeries) != 5 {
		t.Errorf("tile-pool series = %v, want exactly five", poolSeries)
	}

	// The backend info gauge carries the resolved backend as a label and
	// is always 1.
	backendSeen := false
	for _, smp := range samples {
		if smp.name != "uvolt_backend_info" {
			continue
		}
		backendSeen = true
		if smp.value != 1 {
			t.Errorf("uvolt_backend_info value = %g, want 1", smp.value)
		}
		if be := smp.labels["backend"]; be != "dense" && be != "sparse" {
			t.Errorf("uvolt_backend_info backend = %q, want dense or sparse", be)
		}
	}
	if !backendSeen {
		t.Error("no uvolt_backend_info sample in exposition")
	}

	// Per-board temperature and power gauges: one sample per board,
	// keyed by the board label, with physically plausible values.
	for _, fam := range []struct {
		name   string
		lo, hi float64
	}{
		{"uvolt_temperature_celsius", 10, 120},
		{"uvolt_power_watts", 0.01, 200},
	} {
		boards := map[string]bool{}
		for _, smp := range samples {
			if smp.name != fam.name {
				continue
			}
			b := smp.labels["board"]
			if b == "" {
				t.Errorf("%s sample without board label", fam.name)
			}
			if boards[b] {
				t.Errorf("%s duplicate sample for board %q", fam.name, b)
			}
			boards[b] = true
			if smp.value < fam.lo || smp.value > fam.hi {
				t.Errorf("%s{board=%q} = %g, outside [%g, %g]", fam.name, b, smp.value, fam.lo, fam.hi)
			}
		}
		if len(boards) != 2 {
			t.Errorf("%s covers %d boards, want 2", fam.name, len(boards))
		}
	}

	// Histogram discipline per series: buckets monotone non-decreasing in
	// ascending le, a +Inf bucket present and equal to _count.
	type series struct {
		les    []float64
		counts []float64
		inf    float64
		hasInf bool
		count  float64
	}
	hists := map[string]*series{}
	key := func(smp metricSample) string { return family(smp.name, typ) + "|" + labelKey(smp.labels) }
	get := func(k string) *series {
		if hists[k] == nil {
			hists[k] = &series{}
		}
		return hists[k]
	}
	for _, smp := range samples {
		fam := family(smp.name, typ)
		if typ[fam] != "histogram" {
			continue
		}
		switch {
		case strings.HasSuffix(smp.name, "_bucket"):
			le := smp.labels["le"]
			if le == "" {
				t.Errorf("bucket without le: %s %v", smp.name, smp.labels)
				continue
			}
			sr := get(key(smp))
			if le == "+Inf" {
				sr.inf, sr.hasInf = smp.value, true
				continue
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Errorf("unparseable le %q on %s", le, smp.name)
				continue
			}
			sr.les = append(sr.les, bound)
			sr.counts = append(sr.counts, smp.value)
		case strings.HasSuffix(smp.name, "_count"):
			get(key(smp)).count = smp.value
		}
	}
	if len(hists) == 0 {
		t.Fatal("no histogram series parsed")
	}
	for k, sr := range hists {
		for i := 1; i < len(sr.les); i++ {
			if sr.les[i] <= sr.les[i-1] {
				t.Errorf("%s: le bounds not ascending (%g after %g)", k, sr.les[i], sr.les[i-1])
			}
			if sr.counts[i] < sr.counts[i-1] {
				t.Errorf("%s: buckets not cumulative (%g after %g at le=%g)", k, sr.counts[i], sr.counts[i-1], sr.les[i])
			}
		}
		if !sr.hasInf {
			t.Errorf("%s: no le=\"+Inf\" bucket", k)
			continue
		}
		if len(sr.counts) > 0 && sr.inf < sr.counts[len(sr.counts)-1] {
			t.Errorf("%s: +Inf bucket %g below last bucket %g", k, sr.inf, sr.counts[len(sr.counts)-1])
		}
		if math.Abs(sr.inf-sr.count) > 0 {
			t.Errorf("%s: +Inf bucket %g != _count %g", k, sr.inf, sr.count)
		}
	}
}

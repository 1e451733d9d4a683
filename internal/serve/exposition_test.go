package serve

import (
	"bufio"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"fpgauv/internal/fleet"
)

// expositionShape reduces a /metrics body to its contract: every
// # HELP / # TYPE line verbatim, and every sample as its name plus its
// sorted labels with no value. The build's go and version label values
// are masked so the shape does not depend on the toolchain.
func expositionShape(t *testing.T, text string) string {
	t.Helper()
	var b strings.Builder
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			b.WriteString(line)
			b.WriteByte('\n')
			continue
		}
		smp := parseSample(t, line)
		keys := make([]string, 0, len(smp.labels))
		for k := range smp.labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString(smp.name)
		for i, k := range keys {
			v := smp.labels[k]
			if k == "go" || k == "version" {
				v = "*"
			}
			if i == 0 {
				b.WriteByte('{')
			} else {
				b.WriteByte(',')
			}
			b.WriteString(k + "=" + strconv.Quote(v))
		}
		if len(keys) > 0 {
			b.WriteByte('}')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp := getURL(t, ts.URL+"/metrics")
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// checkGolden compares an exposition's shape with testdata/<name>.
func checkGolden(t *testing.T, name, text string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	got := expositionShape(t, text)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s: exposition shape differs at line %d:\n got  %q\n want %q", name, i+1, g, w)
		}
	}
}

// The exposition's shape — family order, HELP, TYPE, label names and
// label values — is pinned for a governed, ECC-protected, traced pool
// after one pinned-seed infer and one classify.
func TestExpositionGoldenPool(t *testing.T) {
	cfg := eccFleetConfig(true)
	cfg.Boards = 2
	cfg.Governor = fleet.GovernorConfig{Interval: -1, BRAM: true}
	s, ts := newTestServer(t, cfg, Config{Trace: true, BatchWindow: time.Millisecond})
	postJSON(t, ts.URL+"/v1/infer", inferRequest{Pixels: testImage(s, 3), Seed: 11}).Body.Close()
	postJSON(t, ts.URL+"/v1/classify", classifyRequest{Seed: 5}).Body.Close()
	checkGolden(t, "exposition_pool.golden", scrape(t, ts))
}

// The same pin for a two-pool cluster router after one classify.
func TestExpositionGoldenCluster(t *testing.T) {
	_, ts := newClusterTestServer(t, clusterConfig(2, eccFleetConfig(false)), Config{BatchWindow: time.Millisecond})
	postJSON(t, ts.URL+"/v1/classify", classifyRequest{Seed: 5}).Body.Close()
	checkGolden(t, "exposition_cluster.golden", scrape(t, ts))
}

// Every sample prints at full precision: parsed back, it equals the
// fleet.Status or SLO field it reads, bit for bit.
func TestExpositionFullPrecision(t *testing.T) {
	cfg := eccFleetConfig(true)
	cfg.Boards = 2
	cfg.Governor = fleet.GovernorConfig{Interval: -1, BRAM: true}
	s, ts := newTestServer(t, cfg, Config{BatchWindow: time.Millisecond})
	postJSON(t, ts.URL+"/v1/classify", classifyRequest{Seed: 5}).Body.Close()

	sn := &snapshot{Server: s, st: s.sched.Status(), slo: s.slo.Snapshot()}
	_, _, samples := parseExposition(t, string(sn.render()))
	got := map[string]float64{}
	for _, smp := range samples {
		got[smp.name+"|"+labelKey(smp.labels)] = smp.value
	}
	check := func(name, labels string, want float64) {
		t.Helper()
		v, ok := got[name+"|"+labels]
		if !ok {
			t.Errorf("%s{%s} missing", name, labels)
		} else if v != want {
			t.Errorf("%s{%s} = %v, want %v", name, labels, v, want)
		}
	}
	st := sn.st
	check("uvolt_fleet_throughput_gops", "", st.GOPs)
	check("uvolt_sparsity", "", st.Sparsity)
	check("uvolt_fleet_served_total", "", float64(st.Served))
	check("uvolt_governor_saved_watts", "", st.Governor.SavedW)
	check("uvolt_governor_saved_joules", "", st.Governor.SavedJ)
	check("uvolt_scrub_interval_ms", "", st.ECC.ScrubIntervalMS)
	check("uvolt_ecc_enabled", "", 1)
	for _, bd := range st.Boards {
		b := "board=" + bd.Board + ";"
		check("uvolt_board_vccint_millivolts", b, bd.VCCINTmV)
		check("uvolt_board_vmin_millivolts", b, bd.VminMV)
		check("uvolt_board_vcrash_millivolts", b, bd.VcrashMV)
		check("uvolt_board_vccbram_millivolts", b, bd.VCCBRAMmV)
		check("uvolt_board_temp_celsius", b, bd.TempC)
		check("uvolt_board_power_watts", b+"rail=total;", bd.PowerW)
		check("uvolt_board_power_watts", b+"rail=vccint;", bd.VCCINTW)
		check("uvolt_board_power_watts", b+"rail=vccbram;", bd.VCCBRAMW)
		check("uvolt_board_throughput_gops", b, bd.GOPs)
		check("uvolt_board_gops_per_watt", b, bd.GOPsPerW)
		check("uvolt_board_health_score", b, bd.HealthScore)
		check("uvolt_governor_operating_millivolts", b, bd.OperatingMV)
		check("uvolt_governor_baseline_millivolts", b, bd.Governor.BaselineMV)
		check("uvolt_governor_saved_watts_by_board", b, bd.Governor.SavedW)
		check("uvolt_governor_bram_operating_millivolts", b, bd.OperatingBRAMMV)
	}
	check("uvolt_slo_availability_target", "", sn.slo.AvailabilityTarget)
	check("uvolt_slo_latency_target_seconds", "", sn.slo.LatencyTargetMS/1e3)
	for _, obj := range sn.slo.Objectives {
		for _, wn := range obj.Windows {
			check("uvolt_slo_burn_rate", "objective="+obj.Objective+";window="+wn.Window+";", wn.BurnRate)
		}
	}
}

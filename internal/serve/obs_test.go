package serve

import (
	"context"
	"net/http"
	"testing"
	"time"

	"fpgauv/internal/fleet"
	"fpgauv/internal/obs"
	"fpgauv/internal/tensor"
)

// obsFleetConfig is a deterministic two-board pool: no background loops,
// so every journal event is caused by the test's own traffic.
func obsFleetConfig(boards int) fleet.Config {
	return fleet.Config{Boards: boards, Tiny: true, Images: 4, CharRepeats: 1,
		MonitorInterval: -1,
		Governor:        fleet.GovernorConfig{Interval: -1},
		ECC:             fleet.ECCConfig{ScrubInterval: -1}}
}

// collectSpans gathers every span named name from a rendered trace tree.
func collectSpans(n *spanJSON, name string, out *[]*spanJSON) {
	if n == nil {
		return
	}
	if n.Name == name {
		*out = append(*out, n)
	}
	for _, c := range n.Children {
		collectSpans(c, name, out)
	}
}

// eventsPage is the /v1/fleet/events reply shape.
type eventsPage struct {
	Events     []obs.Event `json:"events"`
	NextCursor uint64      `json:"next_cursor"`
	Gap        bool        `json:"gap"`
}

// The headline acceptance path: a crash during a traced /v1/infer. The
// trace must show execute attempts on two different boards (the injected
// double failure exhausts the first board's visit and the job requeues),
// and the journal must replay crash → reboot → redeploy → requeue for
// the crashed board with consistent sequence numbers.
func TestTracedInferAcrossCrash(t *testing.T) {
	s, ts := newTestServer(t, obsFleetConfig(2), Config{Trace: true, BatchWindow: time.Millisecond})
	pixels := testImage(s, 3)

	// The requeued job lands back in the shared queue, where the
	// just-healed board is free to pop it again; and the healthy board
	// may pop the job before the sabotaged one. Re-arm the injection and
	// retry until the schedule produces the two-board trace.
	var tj traceJSON
	found := false
	for try := 0; try < 25 && !found; try++ {
		if err := s.pools[0].InjectFailures(0, 2); err != nil {
			t.Fatal(err)
		}
		resp := postJSON(t, ts.URL+"/v1/infer", inferRequest{Pixels: pixels, Seed: int64(100 + try)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("infer: status %d", resp.StatusCode)
		}
		hdr := resp.Header.Get("X-Uvolt-Trace")
		got := decode[inferResponse](t, resp)
		if got.TraceID == "" || hdr != got.TraceID {
			t.Fatalf("trace id: body %q, header %q", got.TraceID, hdr)
		}

		tresp := getURL(t, ts.URL+"/v1/trace/"+got.TraceID)
		if tresp.StatusCode != http.StatusOK {
			t.Fatalf("trace fetch: status %d", tresp.StatusCode)
		}
		tj = decode[traceJSON](t, tresp)
		var execs []*spanJSON
		collectSpans(tj.Root, obs.StageExecute, &execs)
		boards := map[string]bool{}
		failed := 0
		for _, sp := range execs {
			boards[sp.Board] = true
			if sp.Err != "" {
				failed++
			}
		}
		found = failed >= 1 && len(boards) >= 2
		t.Logf("try %d: execs=%d failed=%d boards=%v spans=%d", try, len(execs), failed, boards, tj.Spans)
	}
	if !found {
		t.Fatal("no try produced a failed attempt plus a second-board attempt")
	}

	// The two-board trace in hand: its execute spans carry rails and the
	// requeue span marks the hand-off.
	var execs, requeues []*spanJSON
	collectSpans(tj.Root, obs.StageExecute, &execs)
	collectSpans(tj.Root, obs.StageRequeue, &requeues)
	for _, sp := range execs {
		if sp.Board == "" || sp.VCCINTmV <= 0 {
			t.Errorf("execute span missing annotations: %+v", sp)
		}
	}
	if len(requeues) == 0 {
		t.Error("two-board trace has no requeue span")
	}

	// Journal: the crashed board's chain replays in order. All crashes
	// come from injection on board 0 (no background loops), so the first
	// four of its events are the first try's chain regardless of how many
	// tries ran.
	eresp := getURL(t, ts.URL+"/v1/fleet/events")
	page := decode[eventsPage](t, eresp)
	if page.Gap {
		t.Fatal("journal gapped under test-sized traffic")
	}
	if page.NextCursor == 0 || len(page.Events) == 0 {
		t.Fatal("no journal events after a crash")
	}
	crashed := ""
	var chain []obs.Event
	for _, ev := range page.Events {
		if crashed == "" && ev.Kind == obs.EvCrash {
			crashed = ev.Board
		}
		if ev.Board == crashed {
			chain = append(chain, ev)
		}
	}
	wantKinds := []string{obs.EvCrash, obs.EvPostmortem, obs.EvReboot, obs.EvRedeploy, obs.EvRequeue}
	if len(chain) < len(wantKinds) {
		t.Fatalf("crashed board has %d events, want >= %d", len(chain), len(wantKinds))
	}
	lastSeq := uint64(0)
	for i, want := range wantKinds {
		ev := chain[i]
		if ev.Kind != want {
			t.Errorf("event %d kind = %q, want %q", i, ev.Kind, want)
		}
		if ev.BoardSeq != uint64(i+1) {
			t.Errorf("event %d board_seq = %d, want %d", i, ev.BoardSeq, i+1)
		}
		if ev.Seq <= lastSeq {
			t.Errorf("event %d seq %d not increasing past %d", i, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
	}

	// Cursor paging: asking from the first event's seq returns only what
	// followed it.
	presp := getURL(t, ts.URL+"/v1/fleet/events?cursor="+uitoa(page.Events[0].Seq))
	p2 := decode[eventsPage](t, presp)
	if len(p2.Events) != len(page.Events)-1 || p2.Gap {
		t.Errorf("cursor page: %d events (gap=%t), want %d", len(p2.Events), p2.Gap, len(page.Events)-1)
	}
}

func uitoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func getURL(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// A caller-supplied well-formed X-Uvolt-Trace id is honored end to end;
// a hostile one is replaced.
func TestTraceHeaderContract(t *testing.T) {
	s, ts := newTestServer(t, obsFleetConfig(1), Config{Trace: true, BatchWindow: time.Millisecond})
	_ = s

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/classify", nil)
	req.Header.Set("X-Uvolt-Trace", "caller-chosen_01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got := decode[classifyResponse](t, resp)
	if got.TraceID != "caller-chosen_01" {
		t.Errorf("trace id = %q, want the caller's", got.TraceID)
	}
	if tr := getURL(t, ts.URL+"/v1/trace/caller-chosen_01"); tr.StatusCode != http.StatusOK {
		t.Errorf("caller id not retrievable: status %d", tr.StatusCode)
	} else {
		tr.Body.Close()
	}

	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/classify", nil)
	req2.Header.Set("X-Uvolt-Trace", "bad id{junk}")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	got2 := decode[classifyResponse](t, resp2)
	if got2.TraceID == "" || got2.TraceID == "bad id{junk}" {
		t.Errorf("hostile id not replaced: %q", got2.TraceID)
	}
}

// /v1/traces lists recent traces newest first; a missing id is a JSON
// 404; a disabled server returns no trace ids at all.
func TestTraceEndpoints(t *testing.T) {
	s, ts := newTestServer(t, obsFleetConfig(1), Config{Trace: true, BatchWindow: time.Millisecond})
	_ = s
	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL+"/v1/classify", classifyRequest{Seed: int64(10 + i)})
		decode[classifyResponse](t, resp)
	}
	type listPage struct {
		Enabled bool        `json:"enabled"`
		Traces  []traceJSON `json:"traces"`
	}
	page := decode[listPage](t, getURL(t, ts.URL+"/v1/traces?limit=2"))
	if !page.Enabled || len(page.Traces) != 2 {
		t.Fatalf("traces page: enabled=%t n=%d", page.Enabled, len(page.Traces))
	}
	if page.Traces[0].Seq <= page.Traces[1].Seq {
		t.Errorf("traces not newest-first: %d then %d", page.Traces[0].Seq, page.Traces[1].Seq)
	}
	for _, tj := range page.Traces {
		if tj.Root == nil || tj.Root.Name != obs.StageRequest || tj.DurNS <= 0 {
			t.Errorf("bad rendered trace: %+v", tj)
		}
	}
	if resp := getURL(t, ts.URL+"/v1/trace/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing trace: status %d, want 404", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// With tracing disabled, responses carry no trace ids and the ring
// stays empty.
func TestTracingDisabled(t *testing.T) {
	s, ts := newTestServer(t, obsFleetConfig(1), Config{BatchWindow: time.Millisecond})
	_ = s
	resp := postJSON(t, ts.URL+"/v1/classify", classifyRequest{})
	if h := resp.Header.Get("X-Uvolt-Trace"); h != "" {
		t.Errorf("disabled tracing emitted header %q", h)
	}
	got := decode[classifyResponse](t, resp)
	if got.TraceID != "" {
		t.Errorf("disabled tracing emitted trace id %q", got.TraceID)
	}
	type listPage struct {
		Enabled bool        `json:"enabled"`
		Traces  []traceJSON `json:"traces"`
	}
	page := decode[listPage](t, getURL(t, ts.URL+"/v1/traces"))
	if page.Enabled || len(page.Traces) != 0 {
		t.Errorf("disabled tracing retained %d traces (enabled=%t)", len(page.Traces), page.Enabled)
	}
}

// The full set of instrumentation calls a request makes must allocate
// nothing when tracing is disabled — the pin behind the "tracing is free
// when off" contract. testing.AllocsPerRun would round away rare
// allocations; zero must mean zero, so any nonzero average fails.
func TestDisabledTracingZeroAlloc(t *testing.T) {
	tracer := obs.NewTracer(8) // built disabled
	allocs := testing.AllocsPerRun(1000, func() {
		tr := tracer.Start("irrelevant")
		dec := tr.Root().Child(obs.StageDecode)
		dec.End()
		wait := tr.Root().Child(obs.StageBatchWait)
		wait.EndAt(obs.NowNS())
		fl := tr.Root().Child(obs.StageFleet)
		exec := fl.Child(obs.StageExecute)
		exec.End()
		fl.End()
		tr.Root().Graft(tracer.JobTrace())
		rsp := tr.Root().Child(obs.StageRespond)
		rsp.End()
		tracer.Publish(tr)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %.2f per request, want 0", allocs)
	}
}

// BenchmarkTracedInfer measures the dedicated (pinned-seed) inference
// path with tracing off and on. The off case is the regression pin for
// the zero-overhead contract; compare allocs/op between the two:
//
//	go test -run '^$' -bench BenchmarkTracedInfer -benchmem ./internal/serve
func BenchmarkTracedInfer(b *testing.B) {
	for _, mode := range []struct {
		name  string
		trace bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			pool, err := fleet.New(fleet.Config{Boards: 1, Tiny: true, Images: 4, CharRepeats: 1,
				MonitorInterval: -1,
				Governor:        fleet.GovernorConfig{Interval: -1},
				ECC:             fleet.ECCConfig{ScrubInterval: -1}})
			if err != nil {
				b.Fatal(err)
			}
			s := New(pool, Config{Trace: mode.trace})
			defer s.Close()
			shape := s.sched.InputShape()
			img, err := tensor.FromSlice(testImage(s, 5), shape.C, shape.H, shape.W)
			if err != nil {
				b.Fatal(err)
			}
			imgs := []*tensor.Tensor{img}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr := s.tracer.Start("")
				if _, _, _, _, err := s.batch.SubmitInfer(ctx, imgs, 42, tr); err != nil {
					b.Fatal(err)
				}
				s.publishTrace(tr)
			}
		})
	}
}

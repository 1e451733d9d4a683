package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"fpgauv"
	"fpgauv/internal/obs"
)

const (
	// httpRate is the offered load in requests per second. 300 puts the
	// reference host at 37 % of its two cores when it runs at full speed
	// and past 60 % when it runs at half speed, where queueing and not the
	// program sets the latency; 200 stays on the flat part of the curve in
	// both states (in-flight ≈ 1.0).
	httpRate        = 200
	httpMaxInFlight = 64 // generator back-pressure bound; never reached on a valid run
	scrapeEvery     = time.Second
	lagLimitMS      = 1.0 // a run whose median generator lag exceeds this is invalid
)

// Body kinds a request alternates between.
const (
	bodyJSON = iota
	bodyB64
)

var bodyKindName = [...]string{bodyJSON: "harness.post_json", bodyB64: "harness.post_b64"}

// httpEnv is a pool behind the HTTP front-end, with every request body
// encoded ahead of time so the timed phase spends nothing on it.
type httpEnv struct {
	*servingEnv
	srv     *fpgauv.Server
	handler http.Handler
	bodies  [2][][]byte // [kind][image]
	order   []int       // seeded image order the shots walk
}

// setupHTTP is setupServing plus the server build.
func setupHTTP(seed int64, setup int, traced bool, ring int) (*httpEnv, time.Duration, error) {
	env, took, err := setupServing(seed, setup, false)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	srv := fpgauv.NewServer(env.pool, fpgauv.ServeConfig{Trace: traced, TraceRing: ring})
	took += time.Since(t0)

	h := &httpEnv{servingEnv: env, srv: srv, handler: srv.Handler()}
	for _, img := range env.images {
		h.bodies[bodyJSON] = append(h.bodies[bodyJSON], jsonBody(img))
		h.bodies[bodyB64] = append(h.bodies[bodyB64], b64Body(img))
	}
	h.order = rand.New(rand.NewSource(seed ^ 0x0bde)).Perm(len(env.images))
	return h, took, nil
}

// respWriter is the minimal in-process http.ResponseWriter: requests are
// delivered through Server.Handler().ServeHTTP with no socket, because
// loopback TCP is not this repository's code.
type respWriter struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (w *respWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = make(http.Header)
	}
	return w.hdr
}
func (w *respWriter) WriteHeader(code int)        { w.code = code }
func (w *respWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *respWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// do delivers one request in-process.
func (h *httpEnv) do(method, path string, body []byte, traceID string) *respWriter {
	req, err := http.NewRequest(method, path, bytes.NewReader(body))
	if err != nil {
		panic(err) // method and path are constants of this file
	}
	if traceID != "" {
		req.Header.Set("X-Uvolt-Trace", traceID)
	}
	w := &respWriter{}
	h.handler.ServeHTTP(w, req)
	return w
}

// openLoopPass fires n single-image POST /v1/infer shots on schedule,
// alternating body kinds, while a side goroutine scrapes /metrics and
// /v1/fleet/status once a second the way a monitoring stack would. first
// offsets the walk through the seeded image order so consecutive passes
// do not replay each other.
func (h *httpEnv) openLoopPass(n, first int, rate float64, rec *recorder) (*pass, map[string][]float64) {
	p := &pass{}
	var mu sync.Mutex
	var roots []spanRec // harness spans, matched to program traces after the pass
	if rec != nil {
		roots = make([]spanRec, n)
	}
	scrapes := make(map[string][]float64)

	stop := make(chan struct{})
	var side sync.WaitGroup
	side.Add(1)
	go func() {
		defer side.Done()
		t := time.NewTicker(scrapeEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			for _, path := range []string{"/metrics", "/v1/fleet/status"} {
				t0 := time.Now()
				w := h.do(http.MethodGet, path, nil, "")
				took := time.Since(t0)
				mu.Lock()
				p.attempted++
				if w.status() != http.StatusOK {
					p.fail("GET %s: status %d", path, w.status())
				}
				scrapes[path] = append(scrapes[path], us(took))
				mu.Unlock()
			}
		}
	}()

	p.before = snapProc()
	sampler := startSliceSampler(time.Now(), sliceWidth)
	shots := openLoop(n, time.Duration(float64(time.Second)/rate), httpMaxInFlight, func(i int) bool {
		kind := i % 2
		img := h.order[(first+i)%len(h.order)]
		id := ""
		if rec != nil {
			id = fmt.Sprintf("h-%06d", i)
		}
		startNS := obs.NowNS()
		w := h.do(http.MethodPost, "/v1/infer", h.bodies[kind][img], id)
		endNS := obs.NowNS()
		if rec != nil {
			roots[i] = harnessSpan(id, bodyKindName[kind], startNS, endNS)
		}
		var reply struct {
			Pred int `json:"pred"`
		}
		var err error
		if w.status() != http.StatusOK {
			err = fmt.Errorf("request %d: status %d: %s", i, w.status(), bytes.TrimSpace(w.body.Bytes()))
		} else if jerr := json.Unmarshal(w.body.Bytes(), &reply); jerr != nil {
			err = fmt.Errorf("request %d: reply: %w", i, jerr)
		} else if reply.Pred != h.oracle[img] {
			err = fmt.Errorf("request %d: pred %d, oracle %d", i, reply.Pred, h.oracle[img])
		}
		if err != nil {
			mu.Lock()
			p.fail("%v", err)
			mu.Unlock()
		}
		return err == nil
	})
	p.marks = sampler.finish()
	p.after = snapProc()
	close(stop)
	side.Wait()

	p.attempted += n
	for _, s := range shots {
		if s.end > p.window {
			p.window = s.end
		}
		if !s.ok {
			continue
		}
		p.ops = append(p.ops, op{at: s.end, lat: s.latency(), images: 1})
		p.lagMS = append(p.lagMS, ms(s.lag()))
	}

	if rec != nil {
		// The program's own spans, read back through the public tracer
		// surface and hung beneath the harness span of the same request.
		byID := make(map[string]*obs.Trace, n)
		for _, tr := range h.srv.Tracer().Recent(0) {
			byID[tr.ID()] = tr
		}
		for _, root := range roots {
			rec.add(root, byID[root.Trace])
		}
	}
	return p, scrapes
}

// runHTTP is http_single.
func runHTTP(seed int64, pl plan, rate float64, rec *recorder) (*workloadRun, error) {
	run := &workloadRun{name: wlHTTPSingle, metrics: metricSet{}}
	shotsFor := func(d time.Duration) int { return max(int(d.Seconds()*rate), 1) }

	var env *httpEnv
	setupS, err := timedSetups(pl.setups, func(i int) (func(), time.Duration, error) {
		e, took, err := setupHTTP(seed, i, false, 0)
		if err != nil {
			return nil, 0, err
		}
		if i == 0 {
			env = e
		}
		return e.srv.Close, took, nil
	})
	if err != nil {
		return nil, err
	}
	run.metrics.Set("setup_s", setupS)

	warm, _ := env.openLoopPass(shotsFor(pl.warmup()), 0, rate, nil)
	run.totals.merge(warm)
	untraced, _ := env.openLoopPass(shotsFor(pl.timed), shotsFor(pl.warmup()), rate, nil)
	run.totals.merge(untraced)
	untraced.report(run.metrics)
	// An open loop's rate is set by the generator, and its best slice is
	// the one where a backlog drained: the achieved rate is the whole
	// phase's, which moves only if the program falls behind for good.
	if untraced.window > 0 {
		run.metrics.Set("images_per_s", float64(untraced.images())/untraced.window.Seconds())
	}
	run.samples = len(untraced.ops)
	run.metrics.Set("gops_per_w", gopsPerW(env.pool.Status()))
	run.invalid = percentile(untraced.lagMS, 0.50) > lagLimitMS
	env.srv.Close()

	if pl.traced > 0 {
		n := shotsFor(pl.traced)
		warmN := shotsFor(pl.warmup())
		// A fresh server with tracing on and a ring that retains every
		// request of the pass; the pool behind it hits the warm
		// characterization cache, so this set-up is quick and untimed.
		tenv, _, err := setupHTTP(seed, 0, true, n+warmN)
		if err != nil {
			return nil, err
		}
		defer tenv.srv.Close()
		warm, _ := tenv.openLoopPass(warmN, 0, rate, nil)
		run.totals.merge(warm)
		before := tenv.pool.Status()
		traced, scrapes := tenv.openLoopPass(n, warmN, rate, rec)
		after := tenv.pool.Status()
		run.totals.merge(traced)

		stats := rec.stageStats()
		m := run.metrics
		stageQuantiles(m, stats, obs.StageRequest, "serve.request", false)
		if s := stats[obs.StageRequest+".self"]; len(s) > 0 {
			m.Set("serve.request_self_us_p50", percentile(s, 0.50))
		}
		stageQuantiles(m, stats, obs.StageDecode, "serve.http_decode", true)
		stageQuantiles(m, stats, bodyKindName[bodyJSON]+"/"+obs.StageDecode, "serve.decode_json", false)
		stageQuantiles(m, stats, bodyKindName[bodyB64]+"/"+obs.StageDecode, "serve.decode_b64", false)
		stageQuantiles(m, stats, obs.StageBatchWait, "serve.batch_wait", true)
		stageQuantiles(m, stats, obs.StageAssemble, "serve.assemble", false)
		stageQuantiles(m, stats, obs.StageRespond, "serve.respond", false)
		stageQuantiles(m, stats, obs.StageFleetWait, "fleet.fleet_wait", true)
		stageQuantiles(m, stats, obs.StageExecute, "fleet.execute", true)
		if s := scrapes["/metrics"]; len(s) > 0 {
			m.Set("serve.metrics_scrape_us_p50", percentile(s, 0.50))
		}
		if s := scrapes["/v1/fleet/status"]; len(s) > 0 {
			m.Set("serve.status_us_p50", percentile(s, 0.50))
		}
		fleetCounters(m, before, after)
		traceOverhead(m, untraced, traced)
		m.Set("obs.spans_dropped", float64(rec.dropped))
	}
	return run, nil
}

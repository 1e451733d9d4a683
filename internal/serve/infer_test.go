package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"fpgauv/internal/fleet"
	"fpgauv/internal/tensor"
)

// testImage builds one valid inference input for the server's pool.
func testImage(s *Server, seed int64) []float32 {
	shape := s.sched.InputShape()
	img := tensor.New(shape.C, shape.H, shape.W)
	img.FillRandn(rand.New(rand.NewSource(seed)), 1)
	return img.Data()
}

// b64Image encodes pixels as the little-endian float32 wire form.
func b64Image(pixels []float32) string {
	raw := make([]byte, 4*len(pixels))
	for i, v := range pixels {
		binary.LittleEndian.PutUint32(raw[i*4:], math.Float32bits(v))
	}
	return base64.StdEncoding.EncodeToString(raw)
}

// One image in, one prediction out — over both body encodings, with the
// two encodings of the same image agreeing exactly.
func TestServeInferSingleImage(t *testing.T) {
	s, ts := newTestServer(t, fleet.Config{}, Config{BatchWindow: time.Millisecond})
	pixels := testImage(s, 1)

	resp := postJSON(t, ts.URL+"/v1/infer", inferRequest{Pixels: pixels})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	a := decode[inferResponse](t, resp)

	resp = postJSON(t, ts.URL+"/v1/infer", inferRequest{ImageB64: b64Image(pixels)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("b64 status = %d, want 200", resp.StatusCode)
	}
	b := decode[inferResponse](t, resp)

	for _, out := range []inferResponse{a, b} {
		if out.Pred < 0 || out.Pred >= len(out.Probs) {
			t.Errorf("pred %d outside probs width %d", out.Pred, len(out.Probs))
		}
		var sum float64
		for _, v := range out.Probs {
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-3 {
			t.Errorf("probs sum %.4f, want ~1", sum)
		}
		if out.Board == "" || out.VCCINTmV <= 0 || out.VCCINTmV > 620 {
			t.Errorf("serving metadata incomplete: %+v", out)
		}
		if out.BatchSize < 1 {
			t.Errorf("batch_size = %d, want >= 1", out.BatchSize)
		}
	}
	if a.Pred != b.Pred {
		t.Errorf("pixel and b64 encodings of one image disagree: %d vs %d", a.Pred, b.Pred)
	}
}

// Concurrent per-image submissions coalesce into shared micro-batches
// once every board is busy: twelve calls on three boards leave as three
// singles and, when the first lane frees, one pass of the nine held.
func TestServeInferCoalesces(t *testing.T) {
	const calls, boards = 12, 3
	s, ts, g := newGatedTestServer(t, boards, Config{BatchImages: 16, BatchWindow: time.Hour})

	sizes := make(chan int, calls)
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/infer", inferRequest{Pixels: testImage(s, seed)})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status = %d, want 200", resp.StatusCode)
				resp.Body.Close()
				return
			}
			sizes <- decode[inferResponse](t, resp).BatchSize
		}(int64(i + 1))
	}
	for i := 0; i < boards; i++ {
		if n := g.nextPass(t); n != 1 {
			t.Fatalf("pass %d carried %d images, want a single", i, n)
		}
	}
	waitPending(t, s.batch, &s.batch.inf, calls-boards)
	g.noPass(t)
	g.open()
	wg.Wait()
	close(sizes)

	shared := 0
	for n := range sizes {
		if n == calls-boards {
			shared++
		} else if n != 1 {
			t.Errorf("caller saw batch size %d, want 1 or %d", n, calls-boards)
		}
	}
	if shared != calls-boards {
		t.Errorf("%d callers shared the coalesced pass, want %d", shared, calls-boards)
	}
	if runs := s.batch.inferBatches.Load(); runs != boards+1 {
		t.Errorf("infer batches = %d for %d calls, want %d", runs, calls, boards+1)
	}
	if got := s.batch.inferCoalesced.Load(); got != calls-boards-1 {
		t.Errorf("inferCoalesced = %d, want %d", got, calls-boards-1)
	}
	st := s.sched.Status()
	if st.InferImages != calls {
		t.Errorf("fleet classified %d images, want %d", st.InferImages, calls)
	}
}

// A pinned seed gets a dedicated pass, exactly like pinned classify.
func TestServeInferPinnedSeedDedicated(t *testing.T) {
	s, ts := newTestServer(t, fleet.Config{}, Config{BatchImages: 8, BatchWindow: 50 * time.Millisecond})
	resp := postJSON(t, ts.URL+"/v1/infer", inferRequest{Pixels: testImage(s, 3), Seed: 99})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	out := decode[inferResponse](t, resp)
	if out.BatchSize != 1 {
		t.Errorf("pinned seed coalesced: batch_size = %d, want 1", out.BatchSize)
	}
	if got := s.batch.inferCoalesced.Load(); got != 0 {
		t.Errorf("inferCoalesced = %d, want 0", got)
	}
}

// Body validation: wrong pixel count, bad base64, both encodings at
// once, undecodable JSON, wrong method.
func TestServeInferValidation(t *testing.T) {
	s, ts := newTestServer(t, fleet.Config{}, Config{})
	for name, body := range map[string]inferRequest{
		"short pixels":   {Pixels: []float32{1, 2, 3}},
		"bad base64":     {ImageB64: "%%%not-base64%%%"},
		"odd byte count": {ImageB64: base64.StdEncoding.EncodeToString([]byte{1, 2, 3})},
		"both encodings": {Pixels: testImage(s, 1), ImageB64: b64Image(testImage(s, 1))},
		"empty body":     {},
	} {
		resp := postJSON(t, ts.URL+"/v1/infer", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Non-finite pixels, one row per body form: base64 can carry the
	// bits and is refused by index; a JSON number can only overflow.
	pixels := testImage(s, 1)
	pixels[7] = float32(math.Inf(1))
	overflow := bytes.Replace(pixelsBody(testImage(s, 1)), []byte(`{"pixels":[`), []byte(`{"pixels":[1e39,`), 1)
	overflow = overflow[:bytes.LastIndexByte(overflow, ',')]
	for name, tc := range map[string]struct{ body, want string }{
		"b64 +Inf pixel":     {string(b64Body(pixels)), "pixel 7 is not finite"},
		"json overflowing":   {string(overflow) + "]}", "1e39"},
		"valid then garbage": {string(pixelsBody(testImage(s, 1))) + "]", "after top-level value"},
	} {
		resp, err := http.Post(ts.URL+"/v1/infer", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg := decode[map[string]string](t, resp)["error"]
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, tc.want) {
			t.Errorf("%s: status %d, error %q; want 400 naming %q", name, resp.StatusCode, msg, tc.want)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/infer")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status = %d, want 405", resp.StatusCode)
	}
	resp.Body.Close()
}

// The metrics endpoint exposes the batch-size and infer-latency
// histograms with the infer traffic reflected in them.
func TestServeInferMetricsHistograms(t *testing.T) {
	s, ts := newTestServer(t, fleet.Config{}, Config{BatchWindow: time.Millisecond})
	resp := postJSON(t, ts.URL+"/v1/infer", inferRequest{Pixels: testImage(s, 5)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE uvolt_batch_size histogram",
		`uvolt_batch_size_bucket{kind="infer",le="1"} 1`,
		`uvolt_batch_size_bucket{kind="infer",le="+Inf"} 1`,
		`uvolt_batch_size_bucket{kind="classify",le="+Inf"}`,
		`uvolt_batch_size_count{kind="infer"} 1`,
		"# TYPE uvolt_infer_latency_seconds histogram",
		`uvolt_infer_latency_seconds_bucket{le="+Inf"} 1`,
		"uvolt_infer_latency_seconds_count 1",
		"uvolt_infer_latency_seconds_sum",
		"uvolt_fleet_infer_images_total 1",
		"uvolt_fleet_infer_served_total 1",
		"uvolt_fleet_eval_served_total 0",
		`uvolt_http_requests_total{path="/v1/infer"} 1`,
		"uvolt_batch_infer_runs_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// The batcher under -race: concurrent classify and infer submissions
// racing window-timer flushes, mid-flight cancellations, and Close.
// Mixed pinned-seed (dedicated) and coalescible submissions exercise
// both paths of each queue; every accepted call must complete, and the
// image accounting must balance exactly.
func TestBatcherConcurrencyRace(t *testing.T) {
	pool, err := fleet.New(fleet.Config{Boards: 2, Tiny: true, Images: 4, CharRepeats: 1,
		MonitorInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	b := newBatcher(pool, 3, 4, 500*time.Microsecond)

	shape := pool.InputShape()
	mkimg := func(seed int64) []*tensor.Tensor {
		img := tensor.New(shape.C, shape.H, shape.W)
		img.FillRandn(rand.New(rand.NewSource(seed)), 1)
		return []*tensor.Tensor{img}
	}

	const workers = 8
	const perWorker = 6
	var wg sync.WaitGroup
	var mu sync.Mutex
	served, canceled, images := 0, 0, 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ctx := context.Background()
				var cancel context.CancelFunc
				if (w+i)%4 == 3 {
					// Aggressive deadline: some calls cancel while
					// pending, racing abandon against flush.
					ctx, cancel = context.WithTimeout(ctx, 100*time.Microsecond)
				}
				var seed int64
				if (w+i)%3 == 0 {
					seed = int64(w*100 + i + 1) // pinned: dedicated pass
				}
				var err error
				n := 0
				if w%2 == 0 {
					_, _, err = b.Submit(ctx, seed, nil)
				} else {
					var outs []fleet.InferOutput
					outs, _, _, _, err = b.SubmitInfer(ctx, mkimg(int64(w*1000+i)), seed, nil)
					n = len(outs)
				}
				if cancel != nil {
					cancel()
				}
				mu.Lock()
				switch {
				case err == nil:
					served++
					images += n
				case err == context.DeadlineExceeded || err == ErrShutdown:
					canceled++
				default:
					t.Errorf("worker %d: %v", w, err)
				}
				mu.Unlock()
			}
		}(w)
	}
	// Close the batcher while traffic is still arriving: late callers
	// must get ErrShutdown, in-flight batches must complete.
	time.Sleep(25 * time.Millisecond)
	b.Close()
	wg.Wait()

	if served+canceled != workers*perWorker {
		t.Fatalf("accounting: served %d + canceled %d != %d", served, canceled, workers*perWorker)
	}
	if served == 0 {
		t.Fatal("no call completed before Close")
	}
}

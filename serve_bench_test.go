package fpgauv_test

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"fpgauv"
)

// instantScheduler is a real pool whose Infer answers at once, so a
// request through the front-end costs what the front-end costs.
type instantScheduler struct{ fpgauv.Scheduler }

func (instantScheduler) Infer(_ context.Context, req fpgauv.FleetInferRequest) (fpgauv.FleetInferResult, error) {
	return fpgauv.FleetInferResult{Board: "stub", VCCINTmV: 570,
		Outputs: make([]fpgauv.FleetInferOutput, len(req.Images))}, nil
}

// oneBoardPool is the smallest fleet a server can front; the server's
// Close closes it.
func oneBoardPool(b *testing.B) *fpgauv.Fleet {
	pool, err := fpgauv.NewFleet(fpgauv.FleetConfig{Boards: 1, Tiny: true, Images: 4, CharRepeats: 1,
		MonitorInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	return pool
}

// inferBodies encodes one seeded image the two ways /v1/infer takes it,
// spelled as the repo's benchmark clients spell them.
func inferBodies(sched fpgauv.Scheduler) (jsonBody, b64Body []byte) {
	shape := sched.InputShape()
	rng := rand.New(rand.NewSource(1))
	raw := make([]byte, 4*shape.C*shape.H*shape.W)
	jsonBody = []byte(`{"pixels":[`)
	for i := 0; i < len(raw); i += 4 {
		v := float32(rng.NormFloat64())
		binary.LittleEndian.PutUint32(raw[i:], math.Float32bits(v))
		if i > 0 {
			jsonBody = append(jsonBody, ',')
		}
		jsonBody = strconv.AppendFloat(jsonBody, float64(v), 'g', -1, 32)
	}
	jsonBody = append(jsonBody, "]}"...)
	b64Body = []byte(`{"image_b64":"` + base64.StdEncoding.EncodeToString(raw) + `"}`)
	return jsonBody, b64Body
}

// postInfer delivers one POST /v1/infer in-process and fails the
// benchmark on anything but 200.
func postInfer(b *testing.B, h http.Handler, body []byte) {
	req := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("status %d: %s", w.Code, w.Body.Bytes())
	}
}

// BenchmarkInferDecode is the http_decode row of a served image: one
// single-image POST /v1/infer through Server.Handler() against a
// scheduler that answers at once, per body encoding. What remains next
// to the decode is the request scaffolding (batcher hand-off, response
// encode, the in-process recorder), the same for both.
func BenchmarkInferDecode(b *testing.B) {
	pool := oneBoardPool(b)
	srv := fpgauv.NewServer(instantScheduler{pool}, fpgauv.ServeConfig{})
	defer srv.Close()
	jsonBody, b64Body := inferBodies(pool)
	for _, enc := range []struct {
		name string
		body []byte
	}{{"json", jsonBody}, {"b64", b64Body}} {
		b.Run(enc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc.body)))
			for i := 0; i < b.N; i++ {
				postInfer(b, srv.Handler(), enc.body)
			}
		})
	}
}

// BenchmarkBatcherIdleDispatch is the batch_wait row at low load: one
// request at a time on an idle one-board pool with the default 2 ms
// window, submit to result. A work-conserving batcher makes this the
// cost of the pass; one that always waits out its window adds the
// window to every request.
func BenchmarkBatcherIdleDispatch(b *testing.B) {
	pool := oneBoardPool(b)
	srv := fpgauv.NewServer(pool, fpgauv.ServeConfig{BatchWindow: 2 * time.Millisecond})
	defer srv.Close()
	_, body := inferBodies(pool)
	postInfer(b, srv.Handler(), body) // warm the board's scratch arena
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postInfer(b, srv.Handler(), body)
	}
}

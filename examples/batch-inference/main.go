// Batch inference: per-image requests end to end. Concurrent HTTP
// clients each POST one image to /v1/infer (half as JSON pixel arrays,
// half as base64 float32 buffers); the front-end coalesces them into
// shared micro-batches, the fleet runs each micro-batch as lanes of
// stacked GEMMs spread over the host's executors, and every caller gets back
// its own prediction with the batch size its image rode in on.
package main

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"fpgauv"
)

// inferReply mirrors the /v1/infer response body.
type inferReply struct {
	Pred      int     `json:"pred"`
	Board     string  `json:"board"`
	VCCINTmV  float64 `json:"vccint_mv"`
	BatchSize int     `json:"batch_size"`
}

func main() {
	t0 := time.Now()
	fmt.Println("bringing up a 3-board fleet (characterizing Vmin/Vcrash per sample)...")
	pool, err := fpgauv.NewFleet(fpgauv.FleetConfig{
		Boards: 3,
		Tiny:   true,
		Images: 16,
	})
	if err != nil {
		log.Fatal(err)
	}
	shape := pool.InputShape()
	fmt.Printf("fleet ready in %s, serving %s (input %dx%dx%d CHW)\n\n",
		time.Since(t0).Round(time.Millisecond), pool.Benchmark(), shape.C, shape.H, shape.W)

	srv := fpgauv.NewServer(pool, fpgauv.ServeConfig{
		BatchImages: 8,
		BatchWindow: 5 * time.Millisecond,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	// 48 concurrent single-image clients. Each generates its own image;
	// the coalescer merges strangers' submissions into micro-batches.
	const clients = 48
	pixels := shape.C * shape.H * shape.W
	var wg sync.WaitGroup
	var mu sync.Mutex
	preds := make(map[int]int)
	batchSizes := make(map[int]int)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			img := make([]float32, pixels)
			for p := range img {
				img[p] = float32(rng.NormFloat64())
			}
			var body []byte
			if seed%2 == 0 {
				body, _ = json.Marshal(map[string]any{"pixels": img})
			} else {
				raw := make([]byte, 4*len(img))
				for p, v := range img {
					binary.LittleEndian.PutUint32(raw[p*4:], math.Float32bits(v))
				}
				body, _ = json.Marshal(map[string]any{"image_b64": base64.StdEncoding.EncodeToString(raw)})
			}
			resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
			if err != nil {
				log.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				msg, _ := io.ReadAll(resp.Body)
				log.Fatalf("infer: %d %s", resp.StatusCode, msg)
			}
			var out inferReply
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				log.Fatal(err)
			}
			mu.Lock()
			preds[out.Pred]++
			batchSizes[out.BatchSize]++
			mu.Unlock()
		}(int64(i + 1))
	}
	wg.Wait()

	st := pool.Status()
	fmt.Printf("%d images classified in %d inference jobs over %d micro-batches\n",
		st.InferImages, st.InferServed, st.InferMicroBatches)
	fmt.Print("batch sizes observed by callers: ")
	for size, n := range batchSizes {
		fmt.Printf("%dx[batch=%d] ", n, size)
	}
	fmt.Println()
	fmt.Print("prediction spread: ")
	for class, n := range preds {
		fmt.Printf("class%d:%d ", class, n)
	}
	fmt.Println()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Println("\nbatching metrics excerpt:")
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("uvolt_batch_size_bucket{kind=\"infer\"")) ||
			bytes.HasPrefix(line, []byte("uvolt_fleet_infer_")) ||
			bytes.HasPrefix(line, []byte("uvolt_infer_latency_seconds_count")) {
			fmt.Printf("  %s\n", line)
		}
	}
}

// Package telemetry is the fleet's historical observability substrate:
// per-board time-series recording into fixed-size multi-resolution ring
// buffers (raw samples rolled up into 10s and 1m min/max/mean/last
// aggregates), streaming log-bucketed quantile digests for latency
// percentiles, an SLO tracker with multi-window error-budget burn-rate
// computation, a board health scorer keyed on the paper's margin-drift
// signals (Vmin drift versus the characterization baseline, rising
// corrected-ECC rate at a fixed rail), and a crash flight recorder that
// retains postmortem records.
//
// The recording path is built for a sampler that runs forever: every
// ring and rollup accumulator is allocated at construction, so steady-
// state sampling performs zero heap allocations (pinned by a test).
package telemetry

import "math"

// Point is one aggregated observation of a series: at raw resolution a
// single sample (Min = Max = Mean = Last, Count = 1), at rollup
// resolutions the min/max/mean/last digest of every raw sample that
// landed in the bucket.
type Point struct {
	// AtNS is the point's timestamp on the obs monotonic clock: the
	// sample time for raw points, the bucket start for rollups.
	AtNS  int64   `json:"at_ns"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	Last  float64 `json:"last"`
	Count int64   `json:"count"`
}

// ring is a fixed-capacity Point ring. Not self-synchronized — the
// owning Recorder's mutex covers it.
type ring struct {
	buf  []Point
	next uint64 // points ever pushed
}

func (r *ring) push(p Point) {
	r.buf[r.next%uint64(len(r.buf))] = p
	r.next++
}

// tail appends the most recent n points (oldest first) to dst.
func (r *ring) tail(n int, dst []Point) []Point {
	if n <= 0 || n > len(r.buf) {
		n = len(r.buf)
	}
	have := r.next
	if have > uint64(len(r.buf)) {
		have = uint64(len(r.buf))
	}
	if uint64(n) > have {
		n = int(have)
	}
	for i := r.next - uint64(n); i < r.next; i++ {
		dst = append(dst, r.buf[i%uint64(len(r.buf))])
	}
	return dst
}

// Resolution names accepted by Series.Points and the history endpoint.
const (
	ResRaw = "raw"
	Res10s = "10s"
	Res1m  = "1m"
)

// Resolutions enumerates the supported resolutions in order.
var Resolutions = []string{ResRaw, Res10s, Res1m}

// rollup accumulates raw samples into fixed-width buckets; a sample
// landing past the open bucket flushes the accumulated Point.
type rollup struct {
	ring    ring
	widthNS int64
	bucket  int64 // ordinal of the open bucket; -1 before the first sample
	acc     Point
}

func (ru *rollup) observe(atNS int64, v float64) {
	b := atNS / ru.widthNS
	if b != ru.bucket {
		if ru.bucket >= 0 {
			ru.flush()
		}
		ru.bucket = b
		ru.acc = Point{AtNS: b * ru.widthNS, Min: v, Max: v, Mean: 0, Last: v}
	}
	ru.acc.Min = math.Min(ru.acc.Min, v)
	ru.acc.Max = math.Max(ru.acc.Max, v)
	ru.acc.Last = v
	ru.acc.Count++
	// Mean accumulates the sum until flush divides it.
	ru.acc.Mean += v
}

func (ru *rollup) flush() {
	p := ru.acc
	if p.Count > 0 {
		p.Mean /= float64(p.Count)
	}
	ru.ring.push(p)
}

// Series is one metric's multi-resolution history: a raw ring plus one
// rollup ring per coarser resolution. All methods require external
// synchronization (the Recorder's mutex).
type Series struct {
	raw     ring
	rollups [2]rollup // 10s, 1m
}

// newSeries sizes a series' rings: rawCap raw samples, r10Cap 10-second
// buckets, r1mCap 1-minute buckets.
func newSeries(rawCap, r10Cap, r1mCap int) *Series {
	s := &Series{raw: ring{buf: make([]Point, rawCap)}}
	s.rollups[0] = rollup{ring: ring{buf: make([]Point, r10Cap)}, widthNS: 10e9, bucket: -1}
	s.rollups[1] = rollup{ring: ring{buf: make([]Point, r1mCap)}, widthNS: 60e9, bucket: -1}
	return s
}

// Observe records one raw sample and feeds every rollup level.
func (s *Series) Observe(atNS int64, v float64) {
	s.raw.push(Point{AtNS: atNS, Min: v, Max: v, Mean: v, Last: v, Count: 1})
	for i := range s.rollups {
		s.rollups[i].observe(atNS, v)
	}
}

// Points appends the most recent n points at the named resolution
// (oldest first) to dst. Rollup resolutions include the open (partial)
// bucket as their newest point so readers see fresh data without
// waiting a full bucket width. Unknown resolutions return dst unchanged.
func (s *Series) Points(res string, n int, dst []Point) []Point {
	switch res {
	case ResRaw:
		return s.raw.tail(n, dst)
	case Res10s:
		return s.rollupPoints(0, n, dst)
	case Res1m:
		return s.rollupPoints(1, n, dst)
	}
	return dst
}

func (s *Series) rollupPoints(level, n int, dst []Point) []Point {
	ru := &s.rollups[level]
	if ru.bucket < 0 || ru.acc.Count == 0 {
		return ru.ring.tail(n, dst)
	}
	// The open bucket is the newest point: n-1 closed ones precede it
	// (every retained one when n <= 0, none when n == 1 — tail reads a
	// non-positive count as all).
	if n != 1 {
		dst = ru.ring.tail(n-1, dst)
	}
	p := ru.acc
	p.Mean /= float64(p.Count)
	return append(dst, p)
}

// ValidRes reports whether res names a supported resolution.
func ValidRes(res string) bool {
	return res == ResRaw || res == Res10s || res == Res1m
}

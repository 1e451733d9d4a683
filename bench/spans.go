package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"fpgauv/internal/obs"
)

// spanRec is one span as the trace dump carries it: the harness's own
// spans around each call it makes into a layer, and — grafted beneath
// them — the spans the program already records when tracing is on. IDs
// are local to a trace; Parent is -1 for the root. Stamps are on the obs
// package's monotonic clock so harness and program spans share one axis.
type spanRec struct {
	Trace   string `json:"trace"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Annotations the program's execute spans carry.
	Board        string  `json:"board,omitempty"`
	Batch        int32   `json:"batch,omitempty"`
	VCCINTmV     float64 `json:"vccint_mv,omitempty"`
	VCCBRAMmV    float64 `json:"vccbram_mv,omitempty"`
	ExecNS       int64   `json:"exec_ns,omitempty"`
	MACFaults    int64   `json:"mac_faults,omitempty"`
	ECCCorrected int64   `json:"ecc_corrected,omitempty"`
	Err          string  `json:"err,omitempty"`
}

func (s spanRec) dur() int64 { return s.EndNS - s.StartNS }

// recorder keeps every traced request's spans in memory until the run
// ends. A nil recorder records nothing, which is how the untraced pass
// runs the same code without paying for it.
type recorder struct {
	mu      sync.Mutex
	traces  [][]spanRec
	dropped int
}

// harnessSpan is the root the harness records around one call into the
// program.
func harnessSpan(id, name string, startNS, endNS int64) spanRec {
	return spanRec{Trace: id, ID: 0, Parent: -1, Name: name, StartNS: startNS, EndNS: endNS}
}

// add stores one request: the harness root followed by the program's
// trace (nil when the program recorded none), re-parented under the root.
func (r *recorder) add(root spanRec, tr *obs.Trace) {
	if r == nil {
		return
	}
	spans := make([]spanRec, 1, 1+tr.Len())
	spans[0] = root
	for i := 0; i < tr.Len(); i++ {
		sp := tr.At(i)
		spans = append(spans, spanRec{
			Trace:        root.Trace,
			ID:           i + 1,
			Parent:       sp.Parent() + 1, // program root (-1) hangs off the harness root (0)
			Name:         sp.Name(),
			StartNS:      sp.StartNS(),
			EndNS:        sp.EndNS(),
			Board:        sp.Board,
			Batch:        sp.Batch,
			VCCINTmV:     sp.VCCINTmV,
			VCCBRAMmV:    sp.VCCBRAMmV,
			ExecNS:       sp.ExecNS,
			MACFaults:    sp.MACFaults,
			ECCCorrected: sp.ECCCorrected,
			Err:          sp.Err,
		})
	}
	r.mu.Lock()
	r.traces = append(r.traces, spans)
	if tr != nil {
		r.dropped += tr.Dropped()
	}
	r.mu.Unlock()
}

// selfTimes returns, per span of one trace, its duration minus the part
// of that interval its direct children cover. Overlapping children are
// merged first, so two children sharing an interval are not subtracted
// twice; children are clipped to the parent.
func selfTimes(spans []spanRec) []int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv, len(spans))
	byID := make(map[int]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	for _, s := range spans {
		pi, ok := byID[s.Parent]
		if !ok || s.Parent == s.ID {
			continue
		}
		p := spans[pi]
		lo, hi := s.StartNS, s.EndNS
		if lo < p.StartNS {
			lo = p.StartNS
		}
		if hi > p.EndNS {
			hi = p.EndNS
		}
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, end int64
		end = s.StartNS
		for _, k := range ivs {
			if k.hi <= end {
				continue
			}
			if k.lo < end {
				k.lo = end
			}
			covered += k.hi - k.lo
			end = k.hi
		}
		self[i] = s.dur() - covered
	}
	return self
}

// stageStats reduces the recorded traces to per-stage samples in
// microseconds: durations by span name, self times under name+".self",
// and durations again under root+"/"+name so a stage can be split by the
// kind of call the harness made (JSON body against base64 body).
func (r *recorder) stageStats() map[string][]float64 {
	out := make(map[string][]float64)
	if r == nil {
		return out
	}
	for _, spans := range r.traces {
		self := selfTimes(spans)
		for i, s := range spans {
			if s.EndNS == 0 {
				continue // never closed (overflow sink)
			}
			out[s.Name] = append(out[s.Name], float64(s.dur())/1e3)
			out[s.Name+".self"] = append(out[s.Name+".self"], float64(self[i])/1e3)
			if i > 0 {
				key := spans[0].Name + "/" + s.Name
				out[key] = append(out[key], float64(s.dur())/1e3)
			}
		}
	}
	return out
}

// dump writes every span as one JSON object per line.
func (r *recorder) dump(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, spans := range r.traces {
		for _, s := range spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return "", fmt.Errorf("writing %s: %w", path, err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, f.Close()
}

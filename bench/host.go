package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// provenance is the host fingerprint stamped into every result file, so a
// number is never read without the machine that produced it.
type provenance struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Commit     string  `json:"git_commit"`
	Dirty      bool    `json:"git_dirty"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"timed_seconds"`
	WarmupS    float64 `json:"warmup_seconds"`
	TracedS    float64 `json:"traced_seconds"`
	LayersS    float64 `json:"layers_seconds"`
	Setups     int     `json:"setup_repeats"`
	When       string  `json:"when_utc"`
}

// capProcs applies the harness rule GOMAXPROCS = min(nproc, 4): the load
// and the program together fit the 2-core reference box, and a larger
// host does not silently widen the GEMM pool.
func capProcs() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	runtime.GOMAXPROCS(n)
	return n
}

func newProvenance(seed int64, pl plan) provenance {
	commit, dirty := gitState()
	return provenance{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     commit,
		Dirty:      dirty,
		Seed:       seed,
		Seconds:    pl.timed.Seconds(),
		WarmupS:    pl.warmup().Seconds(),
		TracedS:    pl.traced.Seconds(),
		LayersS:    pl.layers.Seconds(),
		Setups:     pl.setups,
		When:       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitState reads the commit and dirty flag. Outside a git checkout (the
// acceptance pipeline runs from an exported tree) both read as unknown.
func gitState() (commit string, dirty bool) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	commit = strings.TrimSpace(string(out))
	st, err := exec.Command("git", "status", "--porcelain").Output()
	return commit, err == nil && len(strings.TrimSpace(string(st))) > 0
}

// procSnap is the process-wide cost counters one pass is bracketed with.
type procSnap struct {
	cpu     time.Duration // user+sys, getrusage(RUSAGE_SELF)
	mallocs uint64
	sysMB   float64
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func snapProc() procSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSnap{cpu: cpuTime(), mallocs: m.Mallocs, sysMB: float64(m.Sys) / (1 << 20)}
}

// sliceSampler cuts a timed phase into slices: a goroutine wakes every
// width and notes when it actually woke and the CPU time consumed so far.
type sliceSampler struct {
	marks []mark
	stop  chan struct{}
	done  chan struct{}
}

func startSliceSampler(t0 time.Time, width time.Duration) *sliceSampler {
	s := &sliceSampler{
		marks: []mark{{at: time.Since(t0), cpu: cpuTime()}},
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(width)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.marks = append(s.marks, mark{at: time.Since(t0), cpu: cpuTime()})
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its marks.
func (s *sliceSampler) finish() []mark {
	close(s.stop)
	<-s.done
	return s.marks
}

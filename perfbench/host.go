package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/store"
)

// hostRecord describes where and on what a run measured: CPU model,
// CPU count, GOMAXPROCS, Go version, commit (when the build saw one),
// the simulator fingerprint, and the seeds.
func hostRecord(e *env) string {
	rec := map[string]any{
		"cpu":         cpuModel(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"commit":      commit(),
		"fingerprint": store.Fingerprint(),
		"seed":        e.seed,
		"sim_seed":    e.simSeed,
		"workers":     e.workers,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		panic(err) // strings and numbers always marshal
	}
	return string(b)
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

// commit is the revision run.sh found with git, if any.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// rssWatch samples the process's resident set size every rssPoll and
// keeps the largest value seen, so one cycle's peak can be read without
// the process-lifetime high-water mark of earlier cycles.
type rssWatch struct {
	stop chan struct{}
	peak chan int64
	once sync.Once
	mib  float64
}

const rssPoll = 2 * time.Millisecond

func watchRSS() *rssWatch {
	w := &rssWatch{stop: make(chan struct{}), peak: make(chan int64, 1)}
	go func() {
		t := time.NewTicker(rssPoll)
		defer t.Stop()
		peak := rssBytes()
		for {
			select {
			case <-w.stop:
				w.peak <- max(peak, rssBytes())
				return
			case <-t.C:
				peak = max(peak, rssBytes())
			}
		}
	}()
	return w
}

// peakMiB stops the watch and returns the largest RSS it saw, in MiB.
// Later calls return the same value.
func (w *rssWatch) peakMiB() float64 {
	w.once.Do(func() {
		close(w.stop)
		w.mib = float64(<-w.peak) / (1 << 20)
	})
	return w.mib
}

// rssBytes reads the resident set size from /proc/self/statm.
func rssBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

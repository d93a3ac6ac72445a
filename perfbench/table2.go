package main

import (
	"context"
	"expvar"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/expt"
	"repro/internal/replay"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// table2Scale is `pintereport -exp table2 -scale tiny` with the
// benchmark's seed and worker count.
func table2Scale(e *env) expt.Scale {
	sc := expt.Tiny()
	sc.Seed = e.simSeed
	sc.Workers = e.workers
	return sc
}

// table2Configs lists the runs Table II consumes: every workload's
// 2nd-Trace co-runs, then its PInTE sweep.
func table2Configs(r *expt.Runner) []sim.Config {
	var cfgs []sim.Config
	for _, w := range r.Scale.Workloads {
		for _, a := range r.Scale.Adversaries(w) {
			cfgs = append(cfgs, r.Second(w, a))
		}
	}
	for _, w := range r.Scale.Workloads {
		for _, p := range r.Scale.Sweep {
			cfgs = append(cfgs, r.Pinte(w, p))
		}
	}
	return cfgs
}

// table2Campaign drives `pintereport -exp table2` in-process through
// expt.NewRunner and expt.RunExperiment.
type table2Campaign struct {
	r     *expt.Runner
	cache *replay.Cache
	cfgs  []sim.Config
	table string
}

func openTable2(e *env, dir string, clk *supplyClock) (campaign, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := expt.NewRunner(table2Scale(e))
	c := &table2Campaign{r: r, cfgs: table2Configs(r)}
	c.cache, _ = r.Streams.(*replay.Cache)
	if clk != nil {
		r.Streams = timedProvider{inner: r.Streams, clk: clk}
	}
	return c, nil
}

func (c *table2Campaign) render(ctx context.Context) (string, error) {
	tables, err := expt.RunExperiment("table2", c.r.WithContext(ctx))
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if err := report.RenderAll(&b, tables); err != nil {
		return "", err
	}
	return b.String(), nil
}

func (c *table2Campaign) cold(ctx context.Context) (*coldRun, error) {
	hits0, misses0 := telemetry.StoreC.MemoHits.Load(), telemetry.StoreC.MemoMisses.Load()
	watch := watchFirstResult()
	t0 := time.Now()
	table, err := c.render(ctx)
	elapsed := time.Since(t0)
	firstAt := watch.stop()
	if err != nil {
		return nil, err
	}
	c.table = table
	// Read the memo counters before the results are read back through
	// the memo, which adds hits of the benchmark's own.
	memoHits := telemetry.StoreC.MemoHits.Load() - hits0
	memoMisses := telemetry.StoreC.MemoMisses.Load() - misses0
	results, err := c.r.GetAll(c.cfgs)
	if err != nil {
		return nil, err
	}
	d := delivery{expected: len(c.cfgs), table2: table}
	for i, res := range results {
		k, err := runner.ConfigKey(c.cfgs[i])
		if err != nil {
			return nil, err
		}
		dg, err := digest(res)
		if err != nil {
			return nil, err
		}
		d.outputs = append(d.outputs, output{key: k, digest: dg})
		d.results = append(d.results, res)
	}
	var first time.Duration
	if !firstAt.IsZero() {
		first = firstAt.Sub(t0)
	}
	return &coldRun{
		campaign: elapsed, first: first, d: d,
		layer: map[string]float64{
			"runner.points_ran": float64(len(c.cfgs)),
			"expt.memo_hits":    float64(memoHits),
			"expt.memo_misses":  float64(memoMisses),
		},
		cache: c.cache,
	}, nil
}

// warm re-runs the experiment on the same runner, as `pintereport -exp
// all` does when a later experiment needs the same runs: the expt memo
// answers every point.
func (c *table2Campaign) warm(ctx context.Context) (time.Duration, delivery, error) {
	t0 := time.Now()
	table, err := c.render(ctx)
	elapsed := time.Since(t0)
	if err != nil {
		return 0, delivery{}, err
	}
	return elapsed, delivery{expected: 1, table2: table}, nil
}

func (c *table2Campaign) close() {}

// probeFirst starts the experiment cold on a fresh runner, as a new
// pintereport process would, and cancels it at its first completed
// result. The first result comes some 60 ms into a campaign of seconds,
// so one sample per cold campaign is too few for a steady median.
func (c *table2Campaign) probeFirst(ctx context.Context) (time.Duration, error) {
	r := expt.NewRunner(c.r.Scale)
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	telemetry.NewProgress(0, time.Now()).Publish()
	done := make(chan error, 1)
	t0 := time.Now()
	go func() {
		_, err := expt.RunExperiment("table2", r.WithContext(pctx))
		done <- err
	}()
	tick := time.NewTicker(firstPoll)
	defer tick.Stop()
	for {
		select {
		case err := <-done:
			return 0, fmt.Errorf("table2 probe ended before its first result: %v", err)
		case now := <-tick.C:
			if completed(expvar.Get("pinte.campaign")) {
				cancel()
				<-done // the canceled experiment winds down before the next probe
				return now.Sub(t0), nil
			}
		}
	}
}

// firstWatch polls the campaign progress the orchestrator publishes as
// expvar "pinte.campaign" until a result has completed. expt exposes no
// per-result callback, so this is the only outside view of the first
// result.
type firstWatch struct {
	done chan struct{}
	at   chan time.Time
}

const firstPoll = 500 * time.Microsecond

func watchFirstResult() *firstWatch {
	// A fresh empty progress replaces the previous campaign's, so only
	// this campaign's completions are seen.
	telemetry.NewProgress(0, time.Now()).Publish()
	w := &firstWatch{done: make(chan struct{}), at: make(chan time.Time, 1)}
	go func() {
		t := time.NewTicker(firstPoll)
		defer t.Stop()
		for {
			select {
			case <-w.done:
				w.at <- time.Time{}
				return
			case now := <-t.C:
				if completed(expvar.Get("pinte.campaign")) {
					w.at <- now
					return
				}
			}
		}
	}()
	return w
}

// stop ends the watch and returns when the first result was seen (zero
// if none was).
func (w *firstWatch) stop() time.Time {
	close(w.done)
	return <-w.at
}

func completed(v expvar.Var) bool {
	f, ok := v.(expvar.Func)
	if !ok {
		return false
	}
	snap, ok := f.Value().(telemetry.Snapshot)
	return ok && snap.Completed > 0
}

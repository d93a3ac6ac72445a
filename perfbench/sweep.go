package main

import (
	"context"
	"expvar"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	pinte "repro/internal/core"
	"repro/internal/replay"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// replayBudget matches `pintesweep -replay-cache 512`.
const replayBudget = 512 << 20

// fanoutSpec is `pintesweep -workloads 450.soplex,471.omnetpp`: two
// LLC-bound presets, an isolation baseline each and the paper's 12
// P_Induce points, at the CLI's default budgets.
func fanoutSpec(seed uint64) server.SweepSpec {
	return server.SweepSpec{
		Workloads: []string{"450.soplex", "471.omnetpp"}, Points: pinte.DefaultSweep(),
		WarmupInstrs: 200_000, ROIInstrs: 1_000_000, Seed: seed,
	}
}

// sampledSpec is `pintesweep -sample -roi 4000000` over the phased
// presets.
func sampledSpec(seed uint64) server.SweepSpec {
	return server.SweepSpec{
		Workloads: []string{"403.gcc", "627.cam4", "657.xz"}, Points: pinte.DefaultSweep(),
		WarmupInstrs: 200_000, ROIInstrs: 4_000_000, Seed: seed, Sample: true,
	}
}

// sweepCampaign drives one pintesweep campaign in-process, through the
// calls cmd/pintesweep makes: SweepSpec.Configs, then
// runner.New(...).RunAll. The fan-out variant runs with the replay
// cache, fan-out, a resume journal and a result store; the sampled
// variant with the replay cache, sampling and a resume journal.
type sweepCampaign struct {
	dir     string
	workers int
	sample  bool
	cfgs    []sim.Config
	st      *store.Store
	cache   *replay.Cache
	streams trace.SourceProvider
	orc     *runner.Orchestrator
	journal string

	start   time.Time
	firstMu sync.Mutex
	first   time.Duration
}

func openSweep(e *env, dir string, clk *supplyClock, spec server.SweepSpec) (*sweepCampaign, error) {
	c := &sweepCampaign{dir: dir, workers: e.workers, sample: spec.Sample, journal: filepath.Join(dir, "sweep.journal")}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c.cfgs = spec.Configs()
	if !c.sample {
		st, err := store.Open(store.Options{Dir: filepath.Join(dir, "store")})
		if err != nil {
			return nil, fmt.Errorf("opening result store: %w", err)
		}
		c.st = st
	}
	c.cache = replay.NewCache(replayBudget)
	c.streams = c.cache
	if clk != nil {
		c.streams = timedProvider{inner: c.cache, clk: clk}
	}
	c.orc = runner.New(c.options(c.journal, c.streams, c.onResult))
	return c, nil
}

func (c *sweepCampaign) options(journal string, streams trace.SourceProvider, onResult func(int, string, *sim.Result, bool)) runner.Options {
	return runner.Options{
		Workers:  c.workers,
		Journal:  journal,
		Streams:  streams,
		Fanout:   !c.sample,
		Sample:   c.sample,
		Store:    c.st,
		OnResult: onResult,
	}
}

func (c *sweepCampaign) onResult(int, string, *sim.Result, bool) {
	c.firstMu.Lock()
	if c.first == 0 {
		c.first = time.Since(c.start)
	}
	c.firstMu.Unlock()
}

func (c *sweepCampaign) cold(ctx context.Context) (*coldRun, error) {
	c.start = time.Now()
	out, err := c.orc.RunAll(ctx, c.cfgs)
	elapsed := time.Since(c.start)
	if err != nil {
		return nil, err
	}
	d, err := deliverOutcome(c.cfgs, out)
	if err != nil {
		return nil, err
	}
	lines, err := journalLines(c.journal)
	if err != nil {
		return nil, err
	}
	c.firstMu.Lock()
	first := c.first
	c.firstMu.Unlock()
	var retried int64
	if f, ok := expvar.Get("pinte.campaign").(expvar.Func); ok {
		if snap, ok := f.Value().(telemetry.Snapshot); ok {
			retried = snap.Retried
		}
	}
	return &coldRun{
		campaign: elapsed, first: first, d: d,
		layer: map[string]float64{
			"runner.points_ran":          float64(out.Ran),
			"runner.points_from_store":   float64(out.FromStore),
			"runner.points_from_journal": float64(out.FromJournal),
			"runner.retries":             float64(retried),
			"journal_lines":              float64(lines),
		},
		cache: c.cache,
	}, nil
}

// warm reruns the finished campaign the way a second invocation of the
// same pintesweep command would: its resume journal answers every point,
// so nothing is simulated, stored or fsynced.
func (c *sweepCampaign) warm(ctx context.Context) (time.Duration, delivery, error) {
	t0 := time.Now()
	orc := runner.New(c.options(c.journal, replay.NewCache(replayBudget), nil))
	out, err := orc.RunAll(ctx, c.cfgs)
	elapsed := time.Since(t0)
	if err != nil {
		return 0, delivery{}, err
	}
	d, err := deliverOutcome(c.cfgs, out)
	return elapsed, d, err
}

func (c *sweepCampaign) close() {
	if c.st != nil {
		c.st.Close()
	}
}

// deliverOutcome digests an orchestrator outcome in config order.
func deliverOutcome(cfgs []sim.Config, out *runner.Outcome) (delivery, error) {
	d := delivery{expected: len(cfgs)}
	for i, res := range out.Results {
		if res == nil {
			d.errs++
			continue
		}
		k, err := runner.ConfigKey(cfgs[i])
		if err != nil {
			return d, err
		}
		dg, err := digest(res)
		if err != nil {
			return d, err
		}
		d.outputs = append(d.outputs, output{key: k, digest: dg})
		d.results = append(d.results, res)
	}
	return d, nil
}

// journalLines counts the lines in a resume journal.
func journalLines(path string) (int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, c := range b {
		if c == '\n' {
			n++
		}
	}
	return n, nil
}

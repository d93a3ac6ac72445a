// Package runner is the fault-tolerant campaign orchestrator for large
// simulation batches (the paper's 49 workloads × 12 P_Induce points plus
// baselines). It layers four guarantees over internal/sim:
//
//   - cancellation: one context covers the whole campaign; SIGINT or an
//     explicit cancel stops scheduling, interrupts in-flight runs, and
//     surfaces every unfinished config as an ErrCanceled failure.
//   - isolation: a run that panics or fails is captured as a typed
//     *RunError (config, cause, stack, wall time, attempt count) and the
//     rest of the campaign keeps going.
//   - retry: runs that die for seed-dependent reasons (panic, timeout)
//     are retried up to Options.Retries times with a deterministically
//     perturbed seed.
//   - resume: each completed result is appended to a JSONL journal keyed
//     by a deterministic config hash; rerunning the same campaign with
//     the same journal skips everything already completed, so a crashed
//     or interrupted sweep loses no finished work.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/phase"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Options tunes an Orchestrator. The zero value runs every config once
// on a private pool of GOMAXPROCS workers, with no per-run deadline, no
// retries and no journal; failures come back as structured RunErrors.
type Options struct {
	// Workers sizes the private pool a campaign without Pool runs on;
	// <= 0 means GOMAXPROCS. Every phase is pool tasks (a sampling
	// profile, a fan-out group, a per-run attempt chain), so Workers
	// bounds the tasks in flight and FanMaxGroup bounds a group's size.
	Workers int
	// Timeout bounds each run's wall-clock time; 0 disables it. A run
	// over budget fails with ErrTimeout (and may be retried).
	Timeout time.Duration
	// Retries is how many additional attempts a retryable failure
	// (panic, timeout, stall) gets. Each retry perturbs the config seed
	// with PerturbSeed so a deterministically crashing run can escape.
	Retries int
	// Backoff, when positive, is the base delay inserted before retry
	// attempt n: Backoff << (n-1), capped at BackoffMax, with a
	// deterministic ±25% jitter derived from the config seed and attempt
	// number so resumed campaigns pause identically while concurrent
	// retries still decorrelate. 0 retries immediately (the previous
	// behaviour).
	Backoff time.Duration
	// BackoffMax caps the exponential backoff; 0 means 16×Backoff.
	BackoffMax time.Duration
	// StallGrace arms the stuck-run watchdog: a run whose context has
	// expired gets this much longer to return on its own before the
	// orchestrator abandons the wedged goroutine and fails the attempt
	// with sim.ErrStalled (retryable, counted in expvar). 0 disables the
	// watchdog — a run that ignores its context then blocks its worker
	// forever. The watchdog only triggers on an expired context, so a
	// hang under neither Timeout nor cancellation is undetectable.
	StallGrace time.Duration
	// Journal, when non-empty, is the path of the JSONL checkpoint
	// file. Existing entries are loaded first and their configs are
	// skipped; every newly completed result is appended and flushed.
	Journal string
	// Logf receives progress and failure lines (log.Printf-shaped);
	// nil means silent.
	Logf func(format string, args ...any)
	// Progress, when positive, emits a live heartbeat snapshot
	// (completed/failed/retried runs, runs/sec, ETA, journal state)
	// through Logf on this period. Independent of the period, every
	// campaign publishes its progress on expvar ("pinte.campaign",
	// served by the prof package's -debug endpoint).
	Progress time.Duration
	// Streams, when non-nil, is stamped onto every config that does not
	// already carry a stream provider: the campaign's record/replay
	// cache (internal/replay). All workers then share each workload's
	// recorded stream — it is recorded by whichever run needs it first
	// and replayed read-only by the rest. Results are byte-identical
	// with or without it (the provider is excluded from config hashing).
	Streams trace.SourceProvider
	// Fanout enables one-decode sweep fan-out: pending configs that
	// share a primary record stream (sim.FanGroupKey) are grouped and
	// each group runs against a single trace decode (sim.RunFanGroup),
	// one pool task per group, before the per-run phase starts; at most
	// Workers groups (the shared pool's size under Pool) are in flight
	// at once. Results are byte-identical to the sequential path;
	// points that fail inside a group fall back to it, where the normal
	// retry policy applies. Partial groups from a resumed journal and
	// singleton groups always run per-run.
	Fanout bool
	// FanMaxGroup caps a fan-out group's size; oversized groups are
	// split into chunks of at most this many points. The campaign
	// service sets it on campaigns admitted under load shedding — a
	// smaller group costs more decode passes but a smaller peak
	// footprint — before refusing work outright. 0 means unlimited;
	// values below 2 are treated as unlimited (a 1-point "group" is
	// just the per-run path).
	FanMaxGroup int
	// Sample enables phase-aware representative sampling: before the
	// per-run phase starts, every distinct sample-eligible
	// (workload, budgets, seed) projection among the pending configs
	// gets one telemetry-only Isolation profile, the profile is
	// clustered into a phase.Plan (internal/phase), and each member run
	// then simulates only the plan's representative windows, reporting
	// extrapolated metrics with error bounds in Result.Sampled. Configs
	// that are not sample-eligible, members of a failed profile, and
	// sampled attempts that fail at run time all fall back to the
	// full-ROI path. Mutually exclusive with Fanout (a fan group
	// simulates every point's full ROI over one decode, while a sampled
	// point skips most of it); sampling wins when both are set. Sampled
	// results are approximations: a resume without Sample re-runs
	// every point its journal holds only a sampled result for.
	Sample bool
	// Pool, when non-nil, executes the campaign on a shared
	// multi-campaign worker pool instead of a private pool of Workers:
	// the campaign's tasks (runs, fan-out groups, sampling profiles) go
	// to a weighted queue tagged Tenant/Weight, so concurrent campaigns
	// interleave under stride fair scheduling and per-tenant
	// concurrency caps. Workers is ignored in pool mode. Tasks shed by
	// a draining pool are recorded as ErrCanceled, leaving them pending
	// in the journal for the next resume.
	Pool *Pool
	// Tenant tags the campaign's pool queue for per-tenant caps;
	// Weight is its fair-share weight (minimum 1). Both are ignored
	// without Pool.
	Tenant string
	Weight int
	// CampaignID, when non-empty, registers the campaign's live
	// progress in the telemetry campaign registry (expvar
	// "pinte.campaigns") instead of the process-wide last-campaign-wins
	// "pinte.campaign" slot. The service unregisters it when the
	// campaign is finalized.
	CampaignID string
	// OnResult observes every completed result: resumed journal entries
	// first (fromJournal=true, in input order), then live completions
	// as they happen. Called without internal locks held; must be safe
	// for concurrent use.
	OnResult func(index int, key string, res *sim.Result, fromJournal bool)
	// Store, when non-nil, is the cross-campaign content-addressed
	// result store (internal/store): pending configs already stored
	// under the current simulator fingerprint are satisfied without
	// running, configs another campaign is computing right now are
	// collapsed onto that computation via single-flight (no pool worker
	// burned on a duplicate), and every full-fidelity completion is
	// appended after its journal entry. Sampled runs bypass the store
	// in both directions — approximations are never shared. Store
	// failures degrade to compute-without-cache; they never fail a run.
	Store *store.Store
}

// RunError describes one failed run of a campaign.
type RunError struct {
	// Index is the config's position in the RunAll input.
	Index int
	// Config is the original (unperturbed) configuration.
	Config sim.Config
	// Key is the config's journal hash.
	Key string
	// Err is the final attempt's failure, wrapping one of the sim
	// taxonomy sentinels (ErrBadConfig, ErrTimeout, ErrPanic,
	// ErrCanceled).
	Err error
	// Stack is the recovered goroutine stack when Err wraps ErrPanic.
	Stack string
	// WallTime spans all attempts; Attempts counts them.
	WallTime time.Duration
	Attempts int
	// JournalOnly marks a failure where the simulation itself
	// succeeded — its result is present in Outcome.Results — but the
	// checkpoint append to the resume journal was lost. Callers should
	// treat these as warnings about journal completeness, not as
	// failed runs.
	JournalOnly bool
}

func (e *RunError) Error() string {
	kind := "run"
	if e.JournalOnly {
		kind = "journal-only failure for run"
	}
	return fmt.Sprintf("%s %d (%s %s p=%g seed=%d): %v [attempts=%d wall=%s]",
		kind, e.Index, e.Config.Mode, e.Config.Workload, e.Config.PInduce,
		e.Config.Seed, e.Err, e.Attempts, e.WallTime.Round(time.Millisecond))
}

func (e *RunError) Unwrap() error { return e.Err }

// Outcome is what a campaign produced: successes in input order (nil
// where a run failed), plus the structured failure list.
type Outcome struct {
	// Results is parallel to the RunAll input; failed or canceled
	// configs leave a nil slot.
	Results []*sim.Result
	// Failures holds one RunError per failed config, ordered by Index.
	Failures []*RunError
	// FromJournal counts configs satisfied from the resume journal
	// without running; FromStore counts configs satisfied from the
	// cross-campaign result store (a prior hit or a shared in-flight
	// computation); Ran counts configs actually executed.
	FromJournal int
	FromStore   int
	Ran         int
}

// Err joins the failures into one error, or returns nil for a fully
// successful campaign.
func (o *Outcome) Err() error {
	if len(o.Failures) == 0 {
		return nil
	}
	errs := make([]error, len(o.Failures))
	for i, f := range o.Failures {
		errs[i] = f
	}
	return errors.Join(errs...)
}

// HardFailures returns the failures whose runs actually produced no
// result, excluding journal-only failures (result kept, checkpoint
// lost). Exit-code logic should key off this list: a campaign whose
// every run completed is not a failed campaign just because a journal
// write was.
func (o *Outcome) HardFailures() []*RunError {
	var hard []*RunError
	for _, f := range o.Failures {
		if !f.JournalOnly {
			hard = append(hard, f)
		}
	}
	return hard
}

// JournalFailures returns the journal-only failures.
func (o *Outcome) JournalFailures() []*RunError {
	var jf []*RunError
	for _, f := range o.Failures {
		if f.JournalOnly {
			jf = append(jf, f)
		}
	}
	return jf
}

// Orchestrator executes campaigns under one Options set. Safe for use
// by a single campaign at a time.
type Orchestrator struct {
	opts Options
	// run executes one attempt; tests substitute it to inject panics
	// and hangs. nil means sim.RunContext. Panics are recovered by the
	// orchestrator regardless of the function used.
	run func(ctx context.Context, cfg sim.Config) (*sim.Result, error)
	// sleep waits out a backoff delay; tests substitute a fake clock.
	// nil means a context-aware real sleep.
	sleep func(ctx context.Context, d time.Duration)
	// withTimeout arms a unit of work's deadline (see deadline); tests
	// substitute it to expire a deadline on an event instead of the
	// wall clock. nil means context.WithTimeout.
	withTimeout func(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc)
}

// New builds an orchestrator.
func New(opts Options) *Orchestrator { return &Orchestrator{opts: opts} }

func (o *Orchestrator) logf(format string, args ...any) {
	if o.opts.Logf != nil {
		o.opts.Logf(format, args...)
	}
}

// deadline bounds one unit of work covering runs simulations — a run
// attempt, a sampling profile, or a fan-out group, which shares one
// budget because a point's deadline is not meaningful in lockstep — by
// runs × Options.Timeout. With no Timeout the context is returned as is.
func (o *Orchestrator) deadline(ctx context.Context, runs int) (context.Context, context.CancelFunc) {
	if o.opts.Timeout <= 0 {
		return ctx, func() {}
	}
	withTimeout := o.withTimeout
	if withTimeout == nil {
		withTimeout = context.WithTimeout
	}
	return withTimeout(ctx, o.opts.Timeout*time.Duration(runs))
}

// PerturbSeed derives the seed for retry attempt n (n >= 1) of a run
// whose original seed is seed. The perturbation is deterministic —
// resuming a campaign retries a crashing config through the same seed
// sequence — and attempt 0 always preserves the original seed, so
// successful runs stay bit-identical to an unorchestrated sim.Run.
func PerturbSeed(seed uint64, attempt int) uint64 {
	if attempt == 0 {
		return seed
	}
	// Golden-ratio odd multiplier: distinct, well-mixed seeds per
	// attempt without colliding with neighbouring campaign seeds.
	return seed ^ uint64(attempt)*0x9e3779b97f4a7c15
}

// backoffDelay computes the pause before retry attempt n (n >= 1) of a
// run with the given original seed: base << (n-1), capped at max (or
// 16×base when max is 0), with a deterministic ±25% jitter so a resumed
// campaign replays the same pauses while concurrent retries of
// different configs decorrelate instead of thundering together.
func backoffDelay(base, max time.Duration, attempt int, seed uint64) time.Duration {
	if base <= 0 || attempt < 1 {
		return 0
	}
	if max <= 0 {
		max = 16 * base
	}
	d := base
	// Shift step-wise against the cap so a large attempt count can
	// never overflow the duration into a negative sleep.
	for i := 1; i < attempt && d < max; i++ {
		d <<= 1
	}
	if d > max {
		d = max
	}
	// splitmix64 of (seed, attempt) → uniform [0,1) → factor in
	// [0.75, 1.25).
	x := seed ^ uint64(attempt)*0x9e3779b97f4a7c15
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	frac := float64(x>>11) / (1 << 53)
	return time.Duration(float64(d) * (0.75 + 0.5*frac))
}

// ctxSleep is the default backoff sleep: d elapses or ctx ends,
// whichever is first.
func ctxSleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// campaign is one RunAll call's state, shared by every pool task the
// call submits. The index-parallel slices are written only by the task
// that owns the index; out is guarded by mu.
type campaign struct {
	*Orchestrator
	cfgs []sim.Config
	keys []string
	// prior[i] counts failed fan-out in-group attempts for config i, so
	// a point that dies inside a group re-enters the per-run
	// retry/backoff ladder at the next rung instead of retrying
	// immediately.
	prior []int
	// plans, filled by the sample phase: a non-nil slot switches that
	// config's attempts to phase-sampled execution (stripped again on a
	// sampled failure's fallback).
	plans   []*phase.Plan
	out     *Outcome
	mu      sync.Mutex
	prog    *telemetry.Progress
	journal *Journal
	q       *Queue
}

// newCampaign hashes cfgs and starts their progress record. Unhashable
// configs fail up front with ErrBadConfig and keep an empty key.
func (o *Orchestrator) newCampaign(cfgs []sim.Config) *campaign {
	c := &campaign{
		Orchestrator: o,
		cfgs:         cfgs,
		keys:         make([]string, len(cfgs)),
		prior:        make([]int, len(cfgs)),
		plans:        make([]*phase.Plan, len(cfgs)),
		out:          &Outcome{Results: make([]*sim.Result, len(cfgs))},
		prog:         telemetry.NewProgress(len(cfgs), time.Now()),
	}
	if o.opts.CampaignID != "" {
		telemetry.RegisterCampaign(o.opts.CampaignID, c.prog)
	} else {
		c.prog.Publish()
	}
	for i, cfg := range cfgs {
		k, err := ConfigKey(cfg)
		if err != nil {
			c.fail(&RunError{
				Index: i, Config: cfg, Attempts: 0,
				Err: fmt.Errorf("%w: unhashable: %v", sim.ErrBadConfig, err),
			}, false)
			continue
		}
		c.keys[i] = k
	}
	return c
}

// RunAll executes cfgs under ctx and never aborts on a per-run failure:
// it always returns an Outcome covering every config. The error return
// is reserved for campaign-level faults (an unreadable or unwritable
// journal); per-run failures — including cancellation — are reported in
// Outcome.Failures so callers can emit completed rows and exit non-zero.
//
// Every phase runs as tasks on one pool queue: Options.Pool's when set,
// otherwise a private pool of Options.Workers closed before returning.
func (o *Orchestrator) RunAll(ctx context.Context, cfgs []sim.Config) (*Outcome, error) {
	return o.newCampaign(cfgs).runAll(ctx)
}

// runAll is RunAll's body: journal resume, the store phase, the sample
// or fan phase, then the per-run phase.
func (c *campaign) runAll(ctx context.Context) (*Outcome, error) {
	o, cfgs, out, prog, keys := c.Orchestrator, c.cfgs, c.out, c.prog, c.keys

	if o.opts.Journal != "" {
		journal, done, jst, err := OpenJournal(o.opts.Journal)
		if err != nil {
			return nil, err
		}
		defer journal.Close()
		c.journal = journal
		for i := range cfgs {
			// A sampled entry is an approximation: it answers a point
			// only when this campaign samples too. Otherwise the point
			// re-runs, and its full entry, appended later, is the one
			// the next load keeps.
			if res, ok := done[keys[i]]; ok && keys[i] != "" && (res.Sampled == nil || o.opts.Sample) {
				out.Results[i] = res
				out.FromJournal++
			}
		}
		prog.FromJournal(out.FromJournal)
		prog.JournalSkipped(jst.Skipped)
		if out.FromJournal > 0 || jst.Skipped > 0 {
			line := fmt.Sprintf("resume: %d of %d runs already journaled in %s",
				out.FromJournal, len(cfgs), o.opts.Journal)
			if jst.Skipped > 0 {
				line += fmt.Sprintf(" (%d corrupt journal lines skipped; their runs re-execute)", jst.Skipped)
			}
			if jst.TruncatedTail {
				line += " (truncated final line from an interrupted append dropped)"
			}
			o.logf("%s", line)
		}
	}

	if o.opts.OnResult != nil {
		for i := range cfgs {
			if out.Results[i] != nil {
				o.opts.OnResult(i, keys[i], out.Results[i], true)
			}
		}
	}

	var pending []int
	for i := range cfgs {
		if out.Results[i] == nil && keys[i] != "" {
			pending = append(pending, i)
		}
	}

	// Heartbeats: a ticker goroutine snapshots the live progress and
	// pushes one line per period through Logf, plus a final line when
	// the campaign drains.
	var heartbeatDone chan struct{}
	if o.opts.Progress > 0 && o.opts.Logf != nil {
		heartbeatDone = make(chan struct{})
		go func() {
			t := time.NewTicker(o.opts.Progress)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					o.logf("%s", prog.Snapshot(time.Now()))
				case <-heartbeatDone:
					return
				}
			}
		}()
	}

	pool := o.opts.Pool
	if pool == nil {
		pool = NewPool(o.opts.Workers)
		defer pool.Close()
	}
	c.q = pool.NewQueue(o.opts.Tenant, o.opts.Weight)
	defer c.q.Close()

	// Store phase: before any scheduling, satisfy pending configs from
	// the cross-campaign result store, and pull configs another campaign
	// is computing right now out of the scheduling paths entirely — each
	// becomes a watcher (launched below, after the phase planners have
	// run) that blocks on the in-flight computation instead of burning a
	// pool worker on a duplicate. Running this before the sample/fan
	// phases keeps already-answered configs out of profile and decode
	// work.
	var watcherIdx []int
	if st := o.opts.Store; st != nil {
		rest := pending[:0]
		hits := 0
		for _, i := range pending {
			if res, ok := st.Get(keys[i]); ok {
				hits++
				c.land(i, res, 0, false)
				continue
			}
			if st.InFlight(keys[i]) {
				watcherIdx = append(watcherIdx, i)
				continue
			}
			rest = append(rest, i)
		}
		pending = rest
		if hits > 0 || len(watcherIdx) > 0 {
			o.logf("store: %d of %d pending runs served from %s (%d more in flight elsewhere)",
				hits, hits+len(watcherIdx)+len(pending), st.FingerprintID(), len(watcherIdx))
		}
	}

	if o.opts.Sample && o.run == nil {
		// Sample phase: profile, cluster and stamp sampling plans (see
		// sample.go). Test harnesses that substitute o.run bypass it —
		// a profile runs the real simulator, not the injected stand-in.
		if o.opts.Fanout {
			o.logf("sampling and fan-out both requested; sampling wins (fan groups run the full simulator)")
		}
		c.runSamplePhase(ctx, pending)
	} else if o.opts.Fanout && o.run == nil {
		// Fan-out phase: grouped points run against one shared decode;
		// whatever it could not place (singletons, partial resume groups,
		// in-group failures) drains through the per-run phase below. Test
		// harnesses that substitute o.run bypass it — a fan group runs
		// the real simulator, not the injected stand-in.
		pending = c.runFanPhase(ctx, pending)
	}

	// Watchers: configs found in flight elsewhere during the store phase
	// ride on plain goroutines — execOne lands in the store's
	// single-flight wait (or inherits the finished result, or becomes
	// the new leader if the other campaign's attempt died) without
	// occupying a pool slot.
	var watchers sync.WaitGroup
	for _, i := range watcherIdx {
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			c.execOne(ctx, i)
		}()
	}

	// Per-run phase: one task per pending config. A config shed by a
	// draining pool or left unstarted by cancellation is recorded as
	// ErrCanceled, which leaves it pending in the journal for the next
	// resume.
	c.dispatch(ctx, len(pending), func(k int) {
		c.execOne(ctx, pending[k])
	}, func(k int) {
		c.fail(c.canceled(pending[k]), false)
	})
	watchers.Wait()
	if heartbeatDone != nil {
		close(heartbeatDone)
		o.logf("%s", prog.Snapshot(time.Now()))
	}
	sort.Slice(out.Failures, func(a, b int) bool {
		return out.Failures[a].Index < out.Failures[b].Index
	})
	return out, nil
}

// dispatch submits units 0..n-1 as tasks on the campaign's pool queue
// and waits for every one of them. A unit shed by a draining pool, or
// dispatched after ctx ended, runs skip instead of do, so each unit is
// accounted exactly once.
func (c *campaign) dispatch(ctx context.Context, n int, do, skip func(k int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for k := 0; k < n; k++ {
		c.q.Submit(func(shed bool) {
			defer wg.Done()
			if shed || ctx.Err() != nil {
				skip(k)
				return
			}
			do(k)
		})
	}
	wg.Wait()
}

// execOne runs one pending config end to end — retry ladder, then the
// result or the failure. With a result store configured, full-fidelity
// attempts run under its single-flight: concurrent identical configs
// (other campaigns, other tenants) collapse onto one computation, and
// the computing side persists its result to the store after the journal
// append, before its flight retires. Sampled attempts bypass the store —
// approximations are never shared.
func (c *campaign) execOne(ctx context.Context, i int) {
	st := c.opts.Store
	if c.plans[i] != nil {
		st = nil
	}
	var (
		attempts int
		rerr     *RunError
	)
	res, via, err := st.Do(ctx, c.keys[i], func() (*sim.Result, error) {
		var res *sim.Result
		res, attempts, rerr = c.runOne(ctx, i)
		if rerr != nil {
			return nil, rerr.Err
		}
		return res, nil
	}, func(res *sim.Result) {
		c.land(i, res, attempts, true)
		// Persist for every future campaign, after the journal append so
		// the campaign's own durability is settled first. A failed Put
		// costs only the cache entry — the run already succeeded.
		if err := st.Put(c.keys[i], res); err != nil {
			c.logf("store: caching result of run %d failed (campaign unaffected): %v", i, err)
		}
	})
	switch {
	case via == store.ViaCompute && rerr == nil:
		// Landed by the persist callback.
	case via == store.ViaCompute:
		c.fail(rerr, true)
	case err == nil:
		c.land(i, res, 0, false)
	default:
		// Canceled while waiting on another campaign's computation.
		c.fail(c.canceled(i), false)
	}
}

// land records one completed result: counted (in Ran when this campaign
// computed it, in FromStore otherwise), kept in Results, reported to
// OnResult and appended to the resume journal. A failed append is
// recorded as a journal-only RunError: the run itself succeeded and its
// result is kept; only the checkpoint was lost, and exit-code logic and
// reports stay truthful.
func (c *campaign) land(i int, res *sim.Result, attempts int, ran bool) {
	c.mu.Lock()
	if ran {
		c.out.Ran++
	} else {
		c.out.FromStore++
	}
	c.out.Results[i] = res
	c.mu.Unlock()
	c.prog.RunCompleted()
	if c.opts.OnResult != nil {
		c.opts.OnResult(i, c.keys[i], res, false)
	}
	if c.journal == nil {
		return
	}
	if err := c.journal.Append(c.keys[i], res); err != nil {
		c.prog.JournalError()
		c.mu.Lock()
		c.out.Failures = append(c.out.Failures, &RunError{
			Index: i, Config: c.cfgs[i], Key: c.keys[i],
			Attempts: attempts, JournalOnly: true,
			Err: fmt.Errorf("journaling result: %w", err),
		})
		c.mu.Unlock()
	}
}

// fail records one config's failure; ran counts it in Ran when the
// campaign spent an execution on it.
func (c *campaign) fail(re *RunError, ran bool) {
	c.mu.Lock()
	if ran {
		c.out.Ran++
	}
	c.out.Failures = append(c.out.Failures, re)
	c.mu.Unlock()
	c.prog.RunFailed()
}

// canceled is the failure of config i that never ran to completion
// because the campaign was canceled or its pool drained.
func (c *campaign) canceled(i int) *RunError {
	return &RunError{Index: i, Config: c.cfgs[i], Key: c.keys[i], Err: sim.ErrCanceled}
}

// runOne executes one config with the per-run deadline, panic capture
// and bounded seed-perturbation retry policy applied. prior counts
// failed attempts already consumed elsewhere (a fan-out in-group
// failure): they advance the backoff ladder and the reported attempt
// count, but not the seed ladder — the first per-run attempt keeps the
// original seed, so a clean fallback stays byte-identical to a
// sequential run. It returns the total attempt count alongside the
// result so journal-only failures can carry it.
func (c *campaign) runOne(ctx context.Context, index int) (*sim.Result, int, *RunError) {
	cfg, key, prior, prog := c.cfgs[index], c.keys[index], c.prior[index], c.prog
	runFn := c.run
	if runFn == nil {
		runFn = sim.RunContext
	}
	if fault.Enabled() {
		// Chaos-mode worker faults wrap the real run so an injected panic
		// is recovered by safeCall and an injected wedge is exactly what
		// the watchdog must convert into a typed failure.
		inner := runFn
		runFn = func(ctx context.Context, ac sim.Config) (*sim.Result, error) {
			fault.InjectWorker()
			return inner(ctx, ac)
		}
	}
	// plan, when non-nil, runs this config's attempts in phase-sampled
	// mode. A sampled attempt that fails strips the plan and re-runs the
	// same attempt on the full-ROI path — a free retry with the same
	// seed, so sampling can degrade the budget saving but never the
	// campaign's outcome.
	plan := c.plans[index]
	start := time.Now()
	var err error
	attempts := 0
	for attempts <= c.opts.Retries {
		ac := cfg
		ac.Seed = PerturbSeed(cfg.Seed, attempts)
		if ac.Streams == nil {
			ac.Streams = c.opts.Streams
		}
		ac.Sample = plan
		// ladder is this attempt's rung on the retry/backoff ladder:
		// per-run retries plus any failed in-group fan-out attempt, so
		// a fallback waits out the same backoff a plain retry would.
		ladder := prior + attempts
		if ladder > 0 {
			prog.Retried()
			if attempts > 0 {
				c.logf("retry %d/%d for run %d (%s %s): %v; perturbed seed %d",
					attempts, c.opts.Retries, index, cfg.Mode, cfg.Workload, err, ac.Seed)
			} else {
				c.logf("run %d (%s %s) re-enters the backoff ladder at rung %d after an in-group failure",
					index, cfg.Mode, cfg.Workload, ladder)
			}
			if d := backoffDelay(c.opts.Backoff, c.opts.BackoffMax, ladder, cfg.Seed); d > 0 {
				sleep := c.sleep
				if sleep == nil {
					sleep = ctxSleep
				}
				sleep(ctx, d)
				if ctx.Err() != nil {
					err = sim.ErrCanceled
					break
				}
			}
		}
		attempts++

		rctx, cancel := c.deadline(ctx, 1)
		var res *sim.Result
		res, err = c.guardedCall(runFn, rctx, ac)
		cancel()
		if err == nil {
			return res, prior + attempts, nil
		}
		// Whole-campaign cancellation masquerades as a per-run error;
		// never retry it, and report it under its own sentinel.
		if ctx.Err() != nil {
			err = sim.ErrCanceled
			break
		}
		if plan != nil {
			// First sampled failure — whatever the cause (a poisoned
			// plan, a trace too short for a seek, a chaos fault): strip
			// the plan and repeat this attempt on the full-ROI path
			// without consuming retry budget.
			telemetry.Phase.SampledFallbacks.Add(1)
			c.logf("run %d (%s %s p=%g): sampled attempt failed (%v); falling back to the full-ROI path",
				index, cfg.Mode, cfg.Workload, cfg.PInduce, err)
			plan = nil
			attempts--
			continue
		}
		if !sim.Retryable(err) {
			break
		}
	}
	re := &RunError{
		Index: index, Config: cfg, Key: key, Err: err,
		WallTime: time.Since(start), Attempts: prior + attempts,
	}
	var pe *sim.PanicError
	if errors.As(err, &pe) {
		re.Stack = string(pe.Stack)
	}
	return nil, prior + attempts, re
}

// guardedCall runs one attempt under the stuck-run watchdog. With no
// StallGrace the attempt runs inline (no extra goroutine, no overhead);
// with one, the attempt runs in its own goroutine and — once the run's
// context has expired — gets StallGrace longer to return before the
// orchestrator walks away with sim.ErrStalled. The abandoned goroutine
// is leaked deliberately: a truly wedged worker (deadlock, blocked
// syscall) cannot be killed from outside, and leaking it bounded-many
// times (Retries per config) beats wedging the campaign forever.
func (o *Orchestrator) guardedCall(runFn func(context.Context, sim.Config) (*sim.Result, error),
	ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	if o.opts.StallGrace <= 0 {
		return safeCall(runFn, ctx, cfg)
	}
	type attempt struct {
		res *sim.Result
		err error
	}
	// Buffered so the abandoned goroutine's eventual send never blocks.
	ch := make(chan attempt, 1)
	go func() {
		res, err := safeCall(runFn, ctx, cfg)
		ch <- attempt{res, err}
	}()
	select {
	case a := <-ch:
		return a.res, a.err
	case <-ctx.Done():
	}
	grace := time.NewTimer(o.opts.StallGrace)
	defer grace.Stop()
	select {
	case a := <-ch:
		return a.res, a.err
	case <-grace.C:
		telemetry.Degraded.StalledRuns.Add(1)
		return nil, fmt.Errorf("%w (no response %v past its context)",
			sim.ErrStalled, o.opts.StallGrace)
	}
}

// safeCall runs one attempt with panic isolation: a crash inside the
// simulator becomes a *sim.PanicError carrying the goroutine stack.
func safeCall(runFn func(context.Context, sim.Config) (*sim.Result, error),
	ctx context.Context, cfg sim.Config) (res *sim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = &sim.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return runFn(ctx, cfg)
}

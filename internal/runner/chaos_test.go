package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// fakeRun returns a deterministic run function whose result is a pure
// function of the config, counting invocations — the journal and resume
// machinery under test cannot tell it from a real simulation.
func fakeRun(calls *atomic.Int64) func(context.Context, sim.Config) (*sim.Result, error) {
	return func(_ context.Context, cfg sim.Config) (*sim.Result, error) {
		if calls != nil {
			calls.Add(1)
		}
		return &sim.Result{
			Config: cfg,
			IPC:    0.5 + cfg.PInduce,
			Instrs: cfg.ROIInstrs,
		}, nil
	}
}

// TestChaosCrashRecoveryProperty is the randomized crash-recovery
// property test: a campaign's journal is cut at fuzzed byte offsets —
// simulating a kill at any instant of an append — and every resume must
// (a) produce results identical to the uninterrupted campaign, (b)
// re-execute exactly the runs whose journal lines the cut destroyed, and
// (c) leave a journal that loads completely and cleanly.
func TestChaosCrashRecoveryProperty(t *testing.T) {
	cfgs := make([]sim.Config, 6)
	for i := range cfgs {
		cfgs[i] = tinyCfg("433.milc", 0.05*float64(i+1))
	}
	keys := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		k, err := ConfigKey(cfg)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}

	dir := t.TempDir()
	golden := filepath.Join(dir, "golden.journal")
	o := New(Options{Workers: 2, Journal: golden})
	o.run = fakeRun(nil)
	out, err := o.RunAll(context.Background(), cfgs)
	if err != nil || len(out.Failures) != 0 {
		t.Fatalf("golden campaign: err=%v failures=%v", err, out.Failures)
	}
	ref := make([]string, len(cfgs))
	for i, r := range out.Results {
		ref[i] = fingerprint(r)
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}

	// Random cuts, plus one at the index of a newline: the last entry is
	// complete but has lost its newline, so it is a torn tail that must
	// re-run rather than be loaded and then trimmed from disk.
	rng := rand.New(rand.NewSource(7))
	mid := len(data) / 2
	cuts := []int{mid + bytes.IndexByte(data[mid:], '\n')}
	for i := 0; i < 16; i++ {
		cuts = append(cuts, 1+rng.Intn(len(data)-1))
	}
	for iter, cut := range cuts {
		path := filepath.Join(dir, fmt.Sprintf("cut%d.journal", iter))
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		intact := int64(bytes.Count(data[:cut], []byte{'\n'}))

		var calls atomic.Int64
		o := New(Options{Workers: 2, Journal: path})
		o.run = fakeRun(&calls)
		out, err := o.RunAll(context.Background(), cfgs)
		if err != nil {
			t.Fatalf("cut=%d: resume failed: %v", cut, err)
		}
		if len(out.Failures) != 0 {
			t.Fatalf("cut=%d: resume reported failures: %v", cut, out.Failures)
		}
		for i, r := range out.Results {
			if fingerprint(r) != ref[i] {
				t.Fatalf("cut=%d: result %d diverged after resume", cut, i)
			}
		}
		if want := int64(len(cfgs)) - intact; calls.Load() != want {
			t.Fatalf("cut=%d: resume re-ran %d runs, want %d (journal had %d intact lines)",
				cut, calls.Load(), want, intact)
		}
		// The resumed journal must be whole: every key present, correct,
		// and not one line skipped as corrupt.
		done, st, err := LoadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Skipped != 0 || st.TruncatedTail {
			t.Fatalf("cut=%d: journal dirty after resume: %+v", cut, st)
		}
		for i, k := range keys {
			if done[k] == nil || fingerprint(done[k]) != ref[i] {
				t.Fatalf("cut=%d: journaled result %d missing or wrong after resume", cut, i)
			}
		}
	}
}

// TestChaosInjectionMatrix arms every injection site in turn against a
// real two-config campaign and asserts the blanket invariant: each
// config either produced a result identical to the fault-free reference
// or failed with a clean typed error — never a silently wrong result.
func TestChaosInjectionMatrix(t *testing.T) {
	cfgs := []sim.Config{tinyCfg("433.milc", 0.1), tinyCfg("450.soplex", 0.3)}
	refO := New(Options{Workers: 2})
	refOut, err := refO.RunAll(context.Background(), cfgs)
	if err != nil || len(refOut.Failures) != 0 {
		t.Fatalf("reference campaign: err=%v failures=%v", err, refOut.Failures)
	}
	ref := make([]string, len(cfgs))
	for i, r := range refOut.Results {
		ref[i] = fingerprint(r)
	}

	typed := func(err error) bool {
		return errors.Is(err, fault.ErrInjected) ||
			errors.Is(err, sim.ErrPanic) || errors.Is(err, sim.ErrTimeout) ||
			errors.Is(err, sim.ErrStalled) || errors.Is(err, sim.ErrBadConfig) ||
			errors.Is(err, sim.ErrCanceled)
	}

	cases := []struct {
		name            string
		spec            string
		journal, cache  bool
		timeout, grace  time.Duration
		wantCampaignErr bool
	}{
		{name: "journal-open", spec: "journal.open:every=1,limit=1", journal: true, wantCampaignErr: true},
		{name: "journal-append", spec: "journal.append:every=1,limit=1", journal: true},
		{name: "journal-append-partial", spec: "journal.append.partial:every=1,limit=1", journal: true},
		{name: "replay-source", spec: "replay.source:every=1,limit=1", cache: true},
		{name: "replay-corrupt", spec: "replay.corrupt:every=1,limit=1", cache: true},
		{name: "replay-evict", spec: "replay.evict:every=2", cache: true},
		{name: "sim-source", spec: "sim.source:every=1,limit=1"},
		{name: "trace-read", spec: "trace.read:every=3,limit=1"},
		{name: "worker-panic", spec: "worker.panic:every=1,limit=1"},
		{name: "worker-slow", spec: "worker.slow:p=1,delay=1s,limit=1", timeout: 250 * time.Millisecond},
		{name: "worker-hang", spec: "worker.hang:every=1,limit=1", timeout: 100 * time.Millisecond, grace: 100 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := fault.Apply("seed=1;" + tc.spec); err != nil {
				t.Fatal(err)
			}
			defer fault.Disable()
			opts := Options{Workers: 2, Timeout: tc.timeout, StallGrace: tc.grace}
			if tc.journal {
				opts.Journal = filepath.Join(t.TempDir(), "m.journal")
			}
			if tc.cache {
				opts.Streams = replay.NewCache(64 << 20)
			}
			out, err := New(opts).RunAll(context.Background(), cfgs)
			if tc.wantCampaignErr {
				if !errors.Is(err, fault.ErrInjected) {
					t.Fatalf("campaign error = %v, want fault.ErrInjected", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("campaign-level error: %v", err)
			}
			for i := range cfgs {
				if r := out.Results[i]; r != nil {
					if fingerprint(r) != ref[i] {
						t.Errorf("config %d produced a result that differs from the fault-free reference", i)
					}
					continue
				}
				found := false
				for _, f := range out.Failures {
					if f.Index == i && !f.JournalOnly {
						found = true
					}
				}
				if !found {
					t.Errorf("config %d has neither a result nor a failure", i)
				}
			}
			for _, f := range out.Failures {
				if !typed(f.Err) {
					t.Errorf("failure for config %d is untyped: %v", f.Index, f.Err)
				}
			}
		})
	}
}

// TestWatchdogConvertsHangToStalled checks the stuck-run watchdog
// abandons a worker that ignores its expired context, surfaces a
// retryable sim.ErrStalled, counts it, and lets a retry succeed.
//
// The deadline hook expires the wedged first attempt's context at once
// (context.DeadlineExceeded, as a real timer would) and gives later
// attempts no deadline, so the honest retry cannot overrun a wall-clock
// budget on a loaded host.
func TestWatchdogConvertsHangToStalled(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var attempts atomic.Int64
	before := telemetry.Degraded.StalledRuns.Load()

	o := New(Options{
		Workers: 1, Timeout: 30 * time.Millisecond,
		StallGrace: 30 * time.Millisecond, Retries: 1,
	})
	o.withTimeout = expireFirstDeadline()
	o.run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		if attempts.Add(1) == 1 {
			<-release // wedged: ignores ctx entirely
		}
		return &sim.Result{Config: cfg, IPC: 1}, nil
	}
	out, err := o.RunAll(context.Background(), []sim.Config{tinyCfg("w", 0.1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Failures) != 0 || out.Results[0] == nil {
		t.Fatalf("retry after stall did not recover: failures=%v", out.Failures)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("attempts = %d, want 2 (stall, then retry)", got)
	}
	if d := telemetry.Degraded.StalledRuns.Load() - before; d != 1 {
		t.Fatalf("StalledRuns advanced by %d, want 1", d)
	}

	// Without retries the stall must surface as a typed failure.
	release2 := make(chan struct{})
	defer close(release2)
	o2 := New(Options{Workers: 1, Timeout: 20 * time.Millisecond, StallGrace: 20 * time.Millisecond})
	o2.withTimeout = expireFirstDeadline()
	o2.run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		<-release2
		return nil, nil
	}
	out2, err := o2.RunAll(context.Background(), []sim.Config{tinyCfg("w", 0.1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out2.Failures) != 1 || !errors.Is(out2.Failures[0].Err, sim.ErrStalled) {
		t.Fatalf("failures = %v, want one sim.ErrStalled", out2.Failures)
	}
}

// expireFirstDeadline is a deadline hook whose first deadline has
// already passed (the context is done with context.DeadlineExceeded) and
// whose later ones never fire.
func expireFirstDeadline() func(context.Context, time.Duration) (context.Context, context.CancelFunc) {
	var armed atomic.Bool
	return func(ctx context.Context, _ time.Duration) (context.Context, context.CancelFunc) {
		if armed.CompareAndSwap(false, true) {
			return context.WithDeadline(ctx, time.Time{})
		}
		return context.WithCancel(ctx)
	}
}

// TestBackoffDelayShape pins the backoff curve: exponential doubling
// from the base, capped, with jitter inside ±25% and deterministic for a
// given (seed, attempt).
func TestBackoffDelayShape(t *testing.T) {
	const base, max = 100 * time.Millisecond, 400 * time.Millisecond
	for attempt := 1; attempt <= 6; attempt++ {
		ideal := base << (attempt - 1)
		if ideal > max {
			ideal = max
		}
		d := backoffDelay(base, max, attempt, 42)
		lo := time.Duration(float64(ideal) * 0.75)
		hi := time.Duration(float64(ideal) * 1.25)
		if d < lo || d > hi {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", attempt, d, lo, hi)
		}
		if d2 := backoffDelay(base, max, attempt, 42); d2 != d {
			t.Errorf("attempt %d: backoff not deterministic: %v != %v", attempt, d, d2)
		}
	}
	if backoffDelay(0, 0, 3, 1) != 0 {
		t.Error("zero base must disable backoff")
	}
	if backoffDelay(base, max, 0, 1) != 0 {
		t.Error("attempt 0 must not back off")
	}
	// Overflow guard: an absurd attempt count stays at the cap.
	if d := backoffDelay(base, max, 500, 9); d <= 0 || d > time.Duration(float64(max)*1.25) {
		t.Errorf("attempt 500: delay %v escaped the cap", d)
	}
}

// TestBackoffUsesFakeClock drives the retry loop against a recording
// sleep hook: the orchestrator must pause before every retry, with the
// exact deterministic delays backoffDelay prescribes, and never sleep
// before the first attempt.
func TestBackoffUsesFakeClock(t *testing.T) {
	cfg := tinyCfg("w", 0.1)
	run := 0
	var slept []time.Duration
	o := New(Options{Workers: 1, Retries: 3, Backoff: 50 * time.Millisecond})
	o.sleep = func(ctx context.Context, d time.Duration) { slept = append(slept, d) }
	o.run = func(ctx context.Context, c sim.Config) (*sim.Result, error) {
		run++
		if run <= 3 {
			return nil, fmt.Errorf("flaky: %w", sim.ErrTimeout)
		}
		return &sim.Result{Config: c, IPC: 1}, nil
	}
	out, err := o.RunAll(context.Background(), []sim.Config{cfg})
	if err != nil || len(out.Failures) != 0 {
		t.Fatalf("campaign: err=%v failures=%v", err, out.Failures)
	}
	if len(slept) != 3 {
		t.Fatalf("slept %d times, want 3 (one per retry)", len(slept))
	}
	for i, d := range slept {
		want := backoffDelay(50*time.Millisecond, 0, i+1, cfg.Seed)
		if d != want {
			t.Errorf("retry %d slept %v, want %v", i+1, d, want)
		}
	}
}

// TestResumeAfterCompactEquality checks compaction preserves resume
// semantics exactly: after compacting, a re-run recalls every result
// from the journal without executing anything, and the results match.
func TestResumeAfterCompactEquality(t *testing.T) {
	cfgs := []sim.Config{tinyCfg("w", 0.1), tinyCfg("w", 0.2), tinyCfg("w", 0.3)}
	path := filepath.Join(t.TempDir(), "c.journal")
	o := New(Options{Workers: 2, Journal: path})
	o.run = fakeRun(nil)
	out, err := o.RunAll(context.Background(), cfgs)
	if err != nil || len(out.Failures) != 0 {
		t.Fatalf("campaign: err=%v failures=%v", err, out.Failures)
	}
	ref := make([]string, len(cfgs))
	for i, r := range out.Results {
		ref[i] = fingerprint(r)
	}

	st, err := CompactJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != len(cfgs) {
		t.Fatalf("compacted %d entries, want %d", st.Entries, len(cfgs))
	}
	// Compaction is deterministic: compacting a compact file is a no-op
	// byte for byte.
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompactJournal(path); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("compacting an already-compact journal changed its bytes")
	}

	var calls atomic.Int64
	o2 := New(Options{Workers: 2, Journal: path})
	o2.run = fakeRun(&calls)
	out2, err := o2.RunAll(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Fatalf("resume after compact re-ran %d runs, want 0", calls.Load())
	}
	if out2.FromJournal != len(cfgs) {
		t.Fatalf("FromJournal = %d, want %d", out2.FromJournal, len(cfgs))
	}
	for i, r := range out2.Results {
		if fingerprint(r) != ref[i] {
			t.Fatalf("result %d diverged across compaction", i)
		}
	}
}

// TestCompactUnderCorruption checks compaction drops damaged lines with
// honest accounting and the rewritten journal is fully clean.
func TestCompactUnderCorruption(t *testing.T) {
	cfgs := []sim.Config{tinyCfg("w", 0.1), tinyCfg("w", 0.2), tinyCfg("w", 0.3)}
	path := filepath.Join(t.TempDir(), "c.journal")
	o := New(Options{Workers: 1, Journal: path})
	o.run = fakeRun(nil)
	if _, err := o.RunAll(context.Background(), cfgs); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte in the middle line: its CRC must catch it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte{'\n'})
	mid := lines[1]
	mid[len(mid)/2] ^= 0x40
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := CompactJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Load.Skipped != 1 || st.Load.CRCFailed != 1 {
		t.Fatalf("compact load stats = %+v, want 1 skipped / 1 CRC-failed", st.Load)
	}
	if st.Entries != len(cfgs)-1 {
		t.Fatalf("compacted %d entries, want %d", st.Entries, len(cfgs)-1)
	}
	done, lst, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if lst.Skipped != 0 || len(done) != len(cfgs)-1 {
		t.Fatalf("compacted journal reloads dirty: %+v, %d entries", lst, len(done))
	}
}

// TestCompactInjectedFailureIsAtomic checks an injected failure at
// either compaction site leaves the original journal byte-identical and
// no temp debris on disk.
func TestCompactInjectedFailureIsAtomic(t *testing.T) {
	for _, site := range []string{fault.SiteJournalCompactWrite, fault.SiteJournalCompactRename} {
		t.Run(site, func(t *testing.T) {
			cfgs := []sim.Config{tinyCfg("w", 0.1), tinyCfg("w", 0.2)}
			dir := t.TempDir()
			path := filepath.Join(dir, "c.journal")
			o := New(Options{Workers: 1, Journal: path})
			o.run = fakeRun(nil)
			if _, err := o.RunAll(context.Background(), cfgs); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			fault.Enable(1)
			fault.Set(site, fault.Spec{Every: 1, Limit: 1})
			defer fault.Disable()
			if _, err := CompactJournal(path); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("compact error = %v, want fault.ErrInjected", err)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("failed compaction modified the journal")
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(ents) != 1 {
				t.Fatalf("temp debris left behind: %v", ents)
			}

			// The budget fired; the retried compaction must succeed.
			if _, err := CompactJournal(path); err != nil {
				t.Fatalf("compaction after injected failure: %v", err)
			}
		})
	}
}

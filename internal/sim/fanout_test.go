package sim

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/trace"
)

// resultJSON canonicalises a result for byte-equality comparison:
// WallTime is the only field allowed to differ between a sequential run
// and its fan-out twin.
func resultJSON(t *testing.T, r *Result) string {
	t.Helper()
	c := *r
	c.WallTime = 0
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkFanEquivalence runs cfgs sequentially and as one fan group and
// requires byte-identical results point by point.
func checkFanEquivalence(t *testing.T, cfgs []Config) {
	t.Helper()
	pts := RunFanGroup(context.Background(), cfgs, 0)
	if len(pts) != len(cfgs) {
		t.Fatalf("got %d points for %d configs", len(pts), len(cfgs))
	}
	for i, cfg := range cfgs {
		if pts[i].Err != nil {
			t.Fatalf("point %d: fan error: %v", i, pts[i].Err)
		}
		seq, err := Run(cfg)
		if err != nil {
			t.Fatalf("point %d: sequential error: %v", i, err)
		}
		if got, want := resultJSON(t, pts[i].Res), resultJSON(t, seq); got != want {
			t.Errorf("point %d (%s mode=%v P=%v): fan result differs from sequential\nfan: %s\nseq: %s",
				i, cfg.Workload, cfg.Mode, cfg.PInduce, got, want)
		}
	}
}

// TestFanoutDigestEquivalence drives the digest executor (capture-mode
// front + followers) across a P_Induce sweep and checks byte-identity
// against sequential runs, per workload archetype.
func TestFanoutDigestEquivalence(t *testing.T) {
	for _, wl := range []string{"453.povray", "433.milc", "450.soplex"} {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			cfgs := []Config{
				tiny(Config{Workload: wl}),
				tiny(Config{Workload: wl, Mode: PInTE, PInduce: 0.05}),
				tiny(Config{Workload: wl, Mode: PInTE, PInduce: 0.5}),
				tiny(Config{Workload: wl, Mode: PInTE, PInduce: 0.05, EngineSeed: 99}),
			}
			checkFanEquivalence(t, cfgs)
		})
	}
}

// TestFanoutDigestNoWarmup covers the warm-up-free edge (the ROI starts
// at instruction zero; the follower arms its sampler at entry).
func TestFanoutDigestNoWarmup(t *testing.T) {
	mk := func(p float64) Config {
		cfg := Config{Workload: "470.lbm", WarmupInstrs: 1, ROIInstrs: 50_000, SampleEvery: 10_000, Seed: 3}
		if p > 0 {
			cfg.Mode, cfg.PInduce = PInTE, p
		}
		return cfg
	}
	// WarmupInstrs cannot be zero post-defaulting; 1 quantises to the
	// first boundary, the smallest representable warm-up.
	checkFanEquivalence(t, []Config{mk(0), mk(0.3)})
}

// TestFanoutLockstepEquivalence forces the lockstep executor with
// points the digest gate rejects (SecondTrace, telemetry collection)
// and checks they still match their sequential runs over a shared
// decode.
func TestFanoutLockstepEquivalence(t *testing.T) {
	cfgs := []Config{
		tiny(Config{Workload: "433.milc"}),
		tiny(Config{Workload: "433.milc", Mode: SecondTrace, Adversary: "470.lbm"}),
		tiny(Config{Workload: "433.milc", Mode: PInTE, PInduce: 0.3, TelemetryEvery: 20_000}),
	}
	checkFanEquivalence(t, cfgs)
}

// TestFanoutGroupKey checks the grouping invariant: per-point knobs
// (mode, P_Induce, engine seed, adversaries, extensions) share a key;
// stream-shaping knobs (workload, seed, window) split it.
func TestFanoutGroupKey(t *testing.T) {
	base := tiny(Config{Workload: "453.povray"})
	key := func(c Config) string {
		k, err := FanGroupKey(c)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	same := []Config{
		tiny(Config{Workload: "453.povray", Mode: PInTE, PInduce: 0.7}),
		tiny(Config{Workload: "453.povray", Mode: PInTE, PInduce: 0.1, EngineSeed: 42}),
		tiny(Config{Workload: "453.povray", Mode: SecondTrace, Adversary: "470.lbm"}),
		tiny(Config{Workload: "453.povray", Mode: PInTE, PInduce: 0.1, TelemetryEvery: 5_000}),
	}
	for i, c := range same {
		if key(c) != key(base) {
			t.Errorf("config %d should share the base group key", i)
		}
	}
	diff := []Config{
		tiny(Config{Workload: "470.lbm"}),
		func() Config { c := tiny(Config{Workload: "453.povray"}); c.Seed = 2; return c }(),
		func() Config { c := tiny(Config{Workload: "453.povray"}); c.ROIInstrs = 40_000; return c }(),
	}
	for i, c := range diff {
		if key(c) == key(base) {
			t.Errorf("config %d should not share the base group key", i)
		}
	}
}

// TestFanoutMixedKeysRejected checks the defensive gate: a group whose
// members cannot share a stream fails every point instead of silently
// desynchronising.
func TestFanoutMixedKeysRejected(t *testing.T) {
	pts := RunFanGroup(context.Background(), []Config{
		tiny(Config{Workload: "453.povray"}),
		tiny(Config{Workload: "470.lbm"}),
	}, 0)
	for i, p := range pts {
		if !errors.Is(p.Err, ErrBadConfig) {
			t.Errorf("point %d: err = %v, want ErrBadConfig", i, p.Err)
		}
	}
}

// TestFanoutCancellation checks a cancelled group aborts promptly and
// every point surfaces the taxonomy error.
func TestFanoutCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfgs := []Config{
		tiny(Config{Workload: "453.povray"}),
		tiny(Config{Workload: "453.povray", Mode: PInTE, PInduce: 0.5}),
	}
	done := make(chan []FanPoint, 1)
	go func() { done <- RunFanGroup(ctx, cfgs, time.Second) }()
	select {
	case pts := <-done:
		for i, p := range pts {
			if p.Err == nil {
				t.Errorf("point %d: completed despite cancelled context", i)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("fan group did not abort after cancellation")
	}
}

// TestFanoutReplayBacked runs the digest executor over a replay-cache
// provider, the production configuration, via a recording source.
func TestFanoutReplayBacked(t *testing.T) {
	cfgs := []Config{
		tiny(Config{Workload: "453.povray"}),
		tiny(Config{Workload: "453.povray", Mode: PInTE, PInduce: 0.25}),
	}
	// trace.Generate is the default provider; the replay-backed variant
	// lives in the runner tests (internal/replay would be an import
	// cycle here if it imported sim; it does not, but the runner is the
	// layer that wires the cache in production).
	for i := range cfgs {
		cfgs[i].Streams = trace.Generate{}
	}
	checkFanEquivalence(t, cfgs)
}

// TestFanoutDigestEdges covers the edges a follower's clock offset must
// reproduce: the MLP divide (not a shift), pointer-chase loads that skip
// the MLP overlap, sample boundaries that do not divide the ROI, and
// instruction fetches that descend past the L2.
func TestFanoutDigestEdges(t *testing.T) {
	sweep := func(base Config) []Config {
		pinte := base
		pinte.Mode, pinte.PInduce = PInTE, 0.5
		return []Config{base, pinte}
	}
	t.Run("mlp-divide", func(t *testing.T) {
		cfg := tiny(Config{Workload: "433.milc"})
		cfg.CPU.MLP = 3
		checkFanEquivalence(t, sweep(cfg))
	})
	t.Run("dependent-loads", func(t *testing.T) {
		// 429.mcf's spec MLP of 1 would hide whether a load is
		// dependent; at 4 only its independent loads overlap.
		cfg := tiny(Config{Workload: "429.mcf"})
		cfg.CPU.MLP = 4
		checkFanEquivalence(t, sweep(cfg))
	})
	t.Run("ragged-samples", func(t *testing.T) {
		cfg := tiny(Config{Workload: "450.soplex"})
		cfg.ROIInstrs, cfg.SampleEvery = 100_000, 30_000
		checkFanEquivalence(t, sweep(cfg))
	})
	t.Run("ifetch-descends", func(t *testing.T) {
		spec, err := trace.SpecFor("453.povray")
		if err != nil {
			t.Fatal(err)
		}
		spec.CodeBytes = 1 << 20 // twice the default L2
		cfg := tiny(Config{Workload: "453.povray", WorkloadSpec: &spec})
		var descends int
		if _, err := relayFollower(t, cfg, func(d *fanDigest) {
			for _, e := range d.events {
				if e.Kind == cache.Ifetch && e.Descend {
					descends++
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		if descends == 0 {
			t.Fatal("no instruction fetch descended past the L2")
		}
		checkFanEquivalence(t, sweep(cfg))
	})
}

// relayFollower runs cfg as a one-follower digest group whose digests
// pass through see on the way from the front to the follower.
func relayFollower(t *testing.T, cfg Config, see func(*fanDigest)) (*Result, error) {
	t.Helper()
	norm := []Config{cfg.withDefaults()}
	spec, err := specFor(norm[0].Workload, norm[0].WorkloadSpec)
	if err != nil {
		t.Fatal(err)
	}
	streams, seed := norm[0].streams(), primarySeed(norm[0])
	fresh := func() (trace.Source, error) { return streams.Source(spec, seed, 0) }
	fan, fr, err := startFanFront(norm, spec, fresh)
	if err != nil {
		t.Fatal(err)
	}
	relay := make(chan *fanDigest, 2)
	go func() {
		defer close(relay)
		for d := range fr.chans[0] {
			see(d)
			relay <- d
		}
	}()
	res, err := runFanFollower(norm[0], fr, fan.Reader(1), relay, &fr.alive[0], time.Now())
	for range relay {
		// Drain until the front ends, so it does not outlive the test.
	}
	return res, err
}

// TestFanoutDigestMismatch checks a follower refuses a digest that
// does not describe its batch: one missing a checkpoint the follower
// must act at, or one carrying an event its trace record contradicts,
// fails the point with the mismatch error instead of returning a
// result priced from the wrong run.
func TestFanoutDigestMismatch(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper func(d *fanDigest) bool
	}{
		{"missing-checkpoint", func(d *fanDigest) bool {
			if len(d.ckpts) == 0 {
				return false
			}
			d.ckpts = d.ckpts[1:]
			return true
		}},
		{"foreign-event", func(d *fanDigest) bool {
			if len(d.events) == 0 {
				return false
			}
			d.events[0].Addr ^= 1 << 61
			return true
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tampered := false
			res, err := relayFollower(t, tiny(Config{Workload: "433.milc", Mode: PInTE, PInduce: 0.3}),
				func(d *fanDigest) {
					if !tampered && d.err == nil {
						tampered = tc.tamper(d)
					}
				})
			if !tampered {
				t.Fatal("no digest to tamper with")
			}
			if !errors.Is(err, errDigestMismatch) {
				t.Errorf("err = %v, want the digest mismatch", err)
			}
			if res != nil {
				t.Errorf("follower returned a result from a mismatched digest")
			}
		})
	}
}

package main

import (
	"context"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/phase"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Committed references, one file per (workload, seed). They were recorded
// with -record-refs from the plain sequential path.
//
//go:embed refs
var refFS embed.FS

// reference is what a workload's outputs are checked against.
type reference struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Results maps runner.ConfigKey to the digest of the WallTime-zeroed
	// result bytes that sim.Run produces for that config alone: no replay
	// cache, no fan-out, no store, no sampling.
	Results map[string]string `json:"results"`
	// FullIPC is the plain-path IPC per config (sweep-sampled only), the
	// base of sample_ipc_err_pct.
	FullIPC map[string]float64 `json:"full_roi_ipc,omitempty"`
	// Sampled maps runner.ConfigKey to the digest of the deterministic
	// sampled result (sweep-sampled only).
	Sampled map[string]string `json:"sampled,omitempty"`
	// Table2 is the rendered Table II (table2-report only).
	Table2 string `json:"table2,omitempty"`
}

func refName(workload string, seed uint64) string {
	return fmt.Sprintf("%s-seed%d.json", workload, seed)
}

// committedRef returns the committed reference for (workload, seed), or
// nil when none was recorded for that seed.
func committedRef(workload string, seed uint64) (*reference, error) {
	b, err := refFS.ReadFile("refs/" + refName(workload, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ref reference
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("reference %s: %w", refName(workload, seed), err)
	}
	return &ref, nil
}

// writeRef stores ref under dir (the benchmark's refs directory).
func writeRef(dir string, ref *reference) error {
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, refName(ref.Workload, ref.Seed)), append(b, '\n'), 0o644)
}

// digest hashes the result bytes that do not depend on the host: the
// golden serialisation, which zeroes WallTime.
func digest(res *sim.Result) (string, error) {
	b, err := sim.GoldenBytes(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// plainRef runs every config through sim.RunContext on its own, with no
// stream provider, fan-out, store or sampling, and returns the digests
// and IPCs keyed by runner.ConfigKey. Configs run on up to workers
// goroutines; each run is still the plain single-config path.
func plainRef(ctx context.Context, cfgs []sim.Config, workers int) (map[string]string, map[string]float64, error) {
	keys, uniq, err := uniqueConfigs(cfgs)
	if err != nil {
		return nil, nil, err
	}
	digests := make(map[string]string, len(uniq))
	ipcs := make(map[string]float64, len(uniq))
	var mu sync.Mutex
	err = forEach(len(uniq), workers, func(i int) error {
		res, err := sim.RunContext(ctx, uniq[i])
		if err != nil {
			return fmt.Errorf("reference run %s: %w", uniq[i].Workload, err)
		}
		d, err := digest(res)
		if err != nil {
			return err
		}
		mu.Lock()
		digests[keys[i]], ipcs[keys[i]] = d, res.IPC
		mu.Unlock()
		return nil
	})
	return digests, ipcs, err
}

// plainSampledRef is the plain path of a sampled campaign: for each
// distinct profiling projection, sim.RunContext of the profile and
// phase.Analyze of its series; then sim.RunContext of every config with
// its plan attached. There is no replay cache, so a generator's skips
// read and discard the records a replayer would seek past.
func plainSampledRef(ctx context.Context, cfgs []sim.Config, workers int) (map[string]string, error) {
	keys, uniq, err := uniqueConfigs(cfgs)
	if err != nil {
		return nil, err
	}
	profKeys, profiles, err := uniqueConfigs(profilesOf(uniq))
	if err != nil {
		return nil, err
	}
	plans := make(map[string]*phase.Plan, len(profiles))
	var mu sync.Mutex
	err = forEach(len(profiles), workers, func(i int) error {
		res, err := sim.RunContext(ctx, profiles[i])
		if err != nil {
			return fmt.Errorf("reference profile %s: %w", profiles[i].Workload, err)
		}
		plan, err := phase.Analyze(res.Telemetry, phase.Options{}, profiles[i].Seed)
		if err != nil {
			return fmt.Errorf("reference plan %s: %w", profiles[i].Workload, err)
		}
		mu.Lock()
		plans[profKeys[i]] = plan
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	digests := make(map[string]string, len(uniq))
	err = forEach(len(uniq), workers, func(i int) error {
		cfg := uniq[i]
		pk, err := runner.ConfigKey(profileOf(cfg))
		if err != nil {
			return err
		}
		cfg.Sample = plans[pk]
		res, err := sim.RunContext(ctx, cfg)
		if err != nil {
			return fmt.Errorf("reference sampled run %s: %w", cfg.Workload, err)
		}
		d, err := digest(res)
		if err != nil {
			return err
		}
		mu.Lock()
		digests[keys[i]] = d
		mu.Unlock()
		return nil
	})
	return digests, err
}

// profileOf is the runner's profiling projection of cfg: the same
// workload, budgets and seed in Isolation mode, with telemetry every
// ROI/64 instructions (at least 1024) and everything PInTE-specific
// stripped.
func profileOf(cfg sim.Config) sim.Config {
	p := cfg.Normalized()
	p.Mode, p.Adversary, p.Adversaries, p.PInduce, p.EngineSeed = sim.Isolation, "", nil, 0, 0
	p.TelemetryEvery = max(p.ROIInstrs/64, 1024)
	p.Sample, p.Streams = nil, nil
	return p
}

func profilesOf(cfgs []sim.Config) []sim.Config {
	out := make([]sim.Config, len(cfgs))
	for i, c := range cfgs {
		out[i] = profileOf(c)
	}
	return out
}

// uniqueConfigs drops repeated configs (by runner.ConfigKey) and any
// runtime plumbing, keeping the first occurrence of each.
func uniqueConfigs(cfgs []sim.Config) ([]string, []sim.Config, error) {
	var keys []string
	var uniq []sim.Config
	seen := make(map[string]bool)
	for _, cfg := range cfgs {
		cfg.Streams, cfg.Sample = nil, nil
		k, err := runner.ConfigKey(cfg)
		if err != nil {
			return nil, nil, err
		}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
			uniq = append(uniq, cfg)
		}
	}
	return keys, uniq, nil
}

// forEach calls fn(0..n-1) on up to workers goroutines and returns the
// first error.
func forEach(n, workers int, fn func(i int) error) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return firstErr
}

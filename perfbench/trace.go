package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/phase"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Traced-run shape: tracedPairs alternations of an untraced and a traced
// cold campaign, tracedWarm warm resubmissions on the last traced one,
// and redriveReps timed calls per re-driven layer function.
const (
	tracedPairs = 2
	tracedWarm  = 10
	redriveReps = 5
)

// counters is one read of every counter the program exports.
type counters map[string]int64

func readCounters() counters {
	c := counters{}
	add := func(prefix string, m map[string]int64) {
		for k, v := range m {
			c[prefix+k] = v
		}
	}
	add("fanout.", telemetry.FanoutSnapshot())
	add("phase.", telemetry.PhaseSnapshot())
	add("server.", telemetry.ServerSnapshot())
	add("degraded.", telemetry.DegradedSnapshot())
	c["store.hits"] = telemetry.StoreC.Hits.Load()
	c["store.misses"] = telemetry.StoreC.Misses.Load()
	c["store.puts"] = telemetry.StoreC.Puts.Load()
	c["store.singleflight_shared"] = telemetry.StoreC.SingleFlightShared.Load()
	return c
}

func (c counters) since(before counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

// traceRun is the traced run. It alternates untraced and traced cold
// campaigns, so the tracing overhead is the difference of their
// campaign_s medians, checks that the wrapped streams produced the same
// bytes, and then re-drives each layer's public functions on the traced
// campaign's own results, outside campaign_s.
func traceRun(ctx context.Context, w *workload, e *env, work string) (*result, error) {
	res := &result{}
	chk := &checker{w: w}
	var untraced, traced []float64
	var (
		last      campaign
		lastRun   *coldRun
		lastClk   *supplyClock
		delta     counters
		cpu       float64
		firstCold delivery
		byKey     = map[string]string{}
		identical = 0
	)
	for i := 0; i < 2*tracedPairs; i++ {
		runtime.GC()
		var clk *supplyClock
		if i%2 == 1 {
			clk = &supplyClock{}
		}
		c, err := w.open(e, filepath.Join(work, fmt.Sprintf("cold%d", i)), clk)
		if err != nil {
			return nil, err
		}
		before, cpu0 := readCounters(), cpuSeconds()
		cr, err := c.cold(ctx)
		if err == nil {
			err = ctx.Err()
		}
		if err != nil {
			c.close()
			return nil, err
		}
		cpuUsed, d := cpuSeconds()-cpu0, readCounters().since(before)
		chk.add(cr.d)
		if i == 0 {
			firstCold = cr.d
		}
		for _, o := range cr.d.outputs {
			if clk == nil {
				byKey[o.key] = o.digest
			} else if byKey[o.key] == o.digest {
				identical++
			} else {
				res.problem("result %s… differs under the timing wrapper", o.key[:12])
			}
		}
		if clk == nil {
			untraced = append(untraced, cr.campaign.Seconds())
			c.close()
			continue
		}
		traced = append(traced, cr.campaign.Seconds())
		if last != nil {
			last.close()
		}
		last, lastRun, lastClk, delta, cpu = c, cr, clk, d, cpuUsed
	}
	defer last.close()
	for i := 0; i < tracedWarm; i++ {
		_, d, err := last.warm(ctx)
		if err != nil {
			return nil, err
		}
		chk.add(d)
	}

	ref, _, err := loadRef(ctx, w, e, firstCold)
	if err != nil {
		return nil, err
	}
	chk.check(ref, res)
	if w.noProvider {
		res.notes = append(res.notes, "wrapper: not applicable, the program builds no stream provider")
	} else {
		res.notes = append(res.notes, fmt.Sprintf("wrapper: %d results under the timing wrapper byte-identical to the untraced campaign", identical))
	}

	ran := uniqueResults(lastRun.d)
	if err := layerMetrics(ctx, w, e, res, last, lastRun, lastClk, delta, cpu, ran, filepath.Join(work, "redrive")); err != nil {
		return nil, err
	}
	tc, uc := median(traced), median(untraced)
	res.set("traced.campaign_s", tc, "s")
	res.set("traced.untraced_campaign_s", uc, "s")
	res.set("traced.overhead_pct", 100*(tc-uc)/uc, "%")
	return res, nil
}

// uniqueResults keeps one result per config key: in the service workload
// both tenants receive the 14 shared configs, which ran once.
func uniqueResults(d delivery) []keyed {
	seen := make(map[string]bool)
	var out []keyed
	for i, o := range d.outputs {
		if !seen[o.key] {
			seen[o.key] = true
			out = append(out, keyed{o.key, d.results[i]})
		}
	}
	return out
}

type keyed struct {
	key string
	res *sim.Result
}

// layerMetrics fills in every per-layer metric from the traced campaign.
func layerMetrics(ctx context.Context, w *workload, e *env, res *result, c campaign, cr *coldRun,
	clk *supplyClock, delta counters, cpu float64, ran []keyed, dir string) error {
	// trace: pinted builds no stream provider, so each service run
	// generates its own stream inside sim; re-drive that generation.
	if w.noProvider {
		clk = &supplyClock{}
		if err := redriveSupply(ran, clk); err != nil {
			return err
		}
		res.notes = append(res.notes, "trace.*: re-driven (pinted builds no provider): each run's stream regenerated through trace.Generate")
	}
	recs := float64(clk.records.Load())
	res.set("trace.supply_s", float64(clk.ns.Load())/1e9, "s")
	res.set("trace.records", recs, "count")
	res.set("trace.skipped_records", float64(clk.skipped.Load()), "count")
	res.set("trace.ns_per_record", float64(clk.ns.Load())/max(recs, 1), "ns")

	// replay
	var hits, misses, fallbacks, mib float64
	if cr.cache != nil {
		s := cr.cache.Snapshot()
		hits, misses, fallbacks, mib = float64(s.Hits), float64(s.Misses), float64(s.Fallbacks), float64(s.Bytes)/(1<<20)
	}
	res.set("replay.hits", hits, "count")
	res.set("replay.misses", misses, "count")
	res.set("replay.recorded_mib", mib, "MiB")
	res.set("replay.fallbacks", fallbacks, "count")
	res.set("replay.fan_decode_passes", float64(delta["fanout.decode_passes"]), "count")
	res.set("replay.fan_passes_saved", float64(delta["fanout.decode_passes_saved"]), "count")

	// sim, cache, core: simulated counts over the configs that ran.
	var detailed, llc, l2, acc, trig, inval float64
	var walls []float64
	var budget float64
	for _, k := range ran {
		r := k.res
		n := r.Config.Normalized()
		budget = float64(n.WarmupInstrs + n.ROIInstrs)
		if r.Sampled != nil {
			detailed += float64(r.Sampled.InstrsSimulated)
		} else {
			detailed += budget
		}
		walls = append(walls, r.WallTime.Seconds())
		llc += r.LLCMPKI * float64(r.Instrs) / 1000
		l2 += r.L2MPKI * float64(r.Instrs) / 1000
		if r.Engine != nil {
			acc += float64(r.Engine.Accesses)
			trig += float64(r.Engine.Triggers)
			inval += float64(r.Engine.Invalidations)
		}
	}
	// Profiling pre-passes are full-detail runs of the same budgets.
	detailed += float64(delta["phase.profile_runs"]) * budget
	res.set("sim.detailed_minstr", detailed/1e6, "Minstr")
	res.set("sim.run_s_p50", median(walls), "s")
	res.set("sim.ns_per_detailed_instr", cpu*1e9/max(detailed, 1), "ns")
	res.set("cache.llc_misses", float64(int64(llc+0.5)), "count")
	res.set("cache.l2_misses", float64(int64(l2+0.5)), "count")
	res.set("core.pinte_accesses", acc, "count")
	res.set("core.pinte_triggers", trig, "count")
	res.set("core.pinte_invalidations", inval, "count")

	// runner
	layer := cr.layer
	for _, k := range []string{"runner.points_ran", "runner.points_from_store", "runner.points_from_journal"} {
		res.set(k, layer[k], "count")
	}
	res.set("runner.fan_groups", float64(delta["fanout.groups_formed"]), "count")
	res.set("runner.fan_fallback_points", float64(delta["fanout.fallback_points"]), "count")
	res.set("runner.stalled_runs", float64(delta["degraded.stalled_runs"]), "count")
	res.set("runner.retries", layer["runner.retries"], "count")
	writes := layer["journal_lines"] + float64(delta["store.puts"])
	res.set("runner.durable_writes_per_result", writes/float64(max(len(cr.d.outputs), 1)), "ratio")

	ms, err := redriveJournal(filepath.Join(dir, "journal"), ran)
	if err != nil {
		return err
	}
	res.set("runner.journal_append_ms_p50", ms, "ms")

	// store
	for _, k := range []string{"store.hits", "store.misses", "store.puts", "store.singleflight_shared"} {
		res.set(k, float64(delta[k]), "count")
	}
	openMs, getUs, putMs, err := redriveStore(filepath.Join(dir, "store"), ran)
	if err != nil {
		return err
	}
	res.set("store.open_ms", openMs, "ms")
	res.set("store.get_us_p50", getUs, "us")
	res.set("store.put_ms_p50", putMs, "ms")

	// phase
	for _, k := range []string{"profile_runs", "phases_found", "instrs_simulated", "instrs_skipped"} {
		res.set("phase."+k, float64(delta["phase."+k]), "count")
	}
	analyzeMs, err := redriveAnalyze(ctx, w.configs(e), e.workers)
	if err != nil {
		return err
	}
	res.set("phase.analyze_ms", analyzeMs, "ms")

	// server
	var submits []time.Duration
	var lines, bytes float64
	if svc, ok := c.(*serviceCampaign); ok {
		submits = svc.submitTimes()
		svc.submitMu.Lock()
		lines, bytes = float64(svc.lines), float64(svc.bytes)
		svc.submitMu.Unlock()
	} else {
		submits, err = redriveSubmit(ctx, e, filepath.Join(dir, "server"), w)
		if err != nil {
			return err
		}
		res.notes = append(res.notes, "server.submit_ms_p50: re-driven (this workload does not go through pinted): its campaign submitted to a loopback pinted, then canceled")
	}
	var sub []float64
	for _, d := range submits {
		sub = append(sub, d.Seconds()*1e3)
	}
	res.set("server.submit_ms_p50", median(sub), "ms")
	res.set("server.admitted", float64(delta["server.admitted"]), "count")
	res.set("server.refused_quota", float64(delta["server.refused_quota"]), "count")
	res.set("server.stream_lines", lines, "count")
	res.set("server.stream_mib", bytes/(1<<20), "MiB")

	// expt
	res.set("expt.memo_hits", layer["expt.memo_hits"], "count")
	res.set("expt.memo_misses", layer["expt.memo_misses"], "count")
	return nil
}

// redriveSupply regenerates every run's primary stream, warm-up plus ROI
// records, through trace.Generate under the timing wrapper.
func redriveSupply(ran []keyed, clk *supplyClock) error {
	buf := make([]trace.Record, 256)
	for _, k := range ran {
		n := k.res.Config.Normalized()
		spec, err := trace.SpecFor(n.Workload)
		if err != nil {
			return err
		}
		src, err := timedProvider{inner: trace.Generate{}, clk: clk}.Source(spec, n.Seed+1, 0)
		if err != nil {
			return err
		}
		for left := n.WarmupInstrs + n.ROIInstrs; left > 0; {
			want := uint64(len(buf))
			if left < want {
				want = left
			}
			got, err := src.NextBatch(buf[:want])
			if err != nil {
				return err
			}
			left -= uint64(got)
		}
	}
	return nil
}

// redriveJournal appends the campaign's results to a scratch journal and
// returns the median Journal.Append time in ms.
func redriveJournal(path string, ran []keyed) (float64, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	j, _, _, err := runner.OpenJournal(path)
	if err != nil {
		return 0, err
	}
	var times []float64
	for _, k := range ran {
		t0 := time.Now()
		if err := j.Append(k.key, k.res); err != nil {
			j.Close()
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds()*1e3)
	}
	return median(times), j.Close()
}

// redriveStore puts the campaign's results into a scratch store, reopens
// the populated directory, and gets every key back. It returns the median
// open (ms), get (µs) and put (ms) times.
func redriveStore(dir string, ran []keyed) (openMs, getUs, putMs float64, err error) {
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return 0, 0, 0, err
	}
	var puts []float64
	for _, k := range ran {
		t0 := time.Now()
		if err := st.Put(k.key, k.res); err != nil {
			st.Close()
			return 0, 0, 0, err
		}
		puts = append(puts, time.Since(t0).Seconds()*1e3)
	}
	if err := st.Close(); err != nil {
		return 0, 0, 0, err
	}
	var opens, gets []float64
	for i := 0; i < redriveReps; i++ {
		t0 := time.Now()
		st, err = store.Open(store.Options{Dir: dir})
		if err != nil {
			return 0, 0, 0, err
		}
		opens = append(opens, time.Since(t0).Seconds()*1e3)
		for _, k := range ran {
			t0 := time.Now()
			_, ok := st.Get(k.key)
			gets = append(gets, time.Since(t0).Seconds()*1e6)
			if !ok {
				st.Close()
				return 0, 0, 0, fmt.Errorf("store re-drive: %s… not found after Put", k.key[:12])
			}
		}
		if err := st.Close(); err != nil {
			return 0, 0, 0, err
		}
	}
	return median(opens), median(gets), median(puts), nil
}

// redriveAnalyze runs the runner's profiling projection of each preset
// and times phase.Analyze on its series; it returns the median in ms.
func redriveAnalyze(ctx context.Context, cfgs []sim.Config, workers int) (float64, error) {
	_, profiles, err := uniqueConfigs(profilesOf(cfgs))
	if err != nil {
		return 0, err
	}
	series := make([]*telemetry.Series, len(profiles))
	err = forEach(len(profiles), workers, func(i int) error {
		r, err := sim.RunContext(ctx, profiles[i])
		if err == nil {
			series[i] = r.Telemetry
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	var times []float64
	for i, s := range series {
		for j := 0; j < redriveReps; j++ {
			t0 := time.Now()
			if _, err := phase.Analyze(s, phase.Options{}, profiles[i].Seed); err != nil {
				return 0, err
			}
			times = append(times, time.Since(t0).Seconds()*1e3)
		}
	}
	return median(times), nil
}

// redriveSubmit submits the workload's campaign to a loopback pinted
// redriveReps times, timing POST → 201, and cancels each campaign.
func redriveSubmit(ctx context.Context, e *env, dir string, w *workload) ([]time.Duration, error) {
	c, err := openService(e, dir, nil)
	if err != nil {
		return nil, err
	}
	svc := c.(*serviceCampaign)
	defer svc.close()
	spec := submitSpec(w, e)
	for i := 0; i < redriveReps; i++ {
		id, err := svc.submit(ctx, "redrive", spec)
		if err != nil {
			return nil, err
		}
		svc.srv.Cancel(id)
	}
	return svc.submitTimes(), nil
}

// submitSpec is the workload's campaign as a pinted submission.
func submitSpec(w *workload, e *env) server.SweepSpec {
	switch w.name {
	case "sweep-fanout":
		return fanoutSpec(e.simSeed)
	case "sweep-sampled":
		return sampledSpec(e.simSeed)
	}
	sc := table2Scale(e)
	return server.SweepSpec{Workloads: sc.Workloads, Points: sc.Sweep, WarmupInstrs: sc.Warmup, ROIInstrs: sc.ROI, Seed: sc.Seed}
}

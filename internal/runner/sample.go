package runner

import (
	"context"

	"repro/internal/phase"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Sample phase: before the per-run phase starts, the orchestrator
// runs one cheap telemetry-only profile per distinct (workload, budgets,
// seed) among the sample-eligible pending configs, clusters each profile
// into a phase.Plan, and stamps the plan onto every member — so a
// 12-point P_Induce sweep pays one full-detail Isolation profile and
// twelve short sampled runs instead of twelve full-ROI runs. Configs
// that are not sample-eligible (multi-core modes, partitioning,
// telemetry collection, ...) and members of a failed profile simply stay
// on the full-ROI path; sampling never turns a runnable campaign into a
// failed one.
//
// Sampling is mutually exclusive with fan-out: a fan group runs the
// full-ROI simulator in lockstep and would ignore the plans. RunAll
// prefers sampling when both are requested.

// profileEvery picks the profiling telemetry interval for a ROI: about
// 64 intervals, floored so degenerate tiny ROIs still profile.
func profileEvery(roi uint64) uint64 {
	every := roi / 64
	if every < 1024 {
		every = 1024
	}
	return every
}

// profileConfig projects cfg onto its profiling pre-pass: the same
// workload, budgets and seed, but single-core Isolation mode with
// telemetry collection on and everything PInTE-specific stripped — so
// every point of a P_Induce sweep (and its baseline) projects onto the
// same profile and shares one plan.
func profileConfig(cfg sim.Config) sim.Config {
	p := cfg.Normalized()
	p.Mode = sim.Isolation
	p.PInduce = 0
	p.EngineSeed = 0
	p.TelemetryEvery = profileEvery(p.ROIInstrs)
	p.Sample = nil
	return p
}

// runSamplePhase fills c.plans: one *phase.Plan slot per config, nil
// where the config runs the full-ROI path. Each profile is one pool task
// on the campaign's queue, so Options.Workers (or the shared pool's
// size) bounds how many run at once and profiling competes fairly with
// other tenants' work; each failure is logged and counted, and leaves
// its members unsampled, as does a profile that never started because
// the campaign was canceled or its pool drained.
func (c *campaign) runSamplePhase(ctx context.Context, pending []int) {
	type group struct {
		profile sim.Config
		members []int
	}
	byKey := make(map[string]*group)
	var groups []*group
	for _, i := range pending {
		cfg := c.cfgs[i]
		if cfg.Streams == nil {
			cfg.Streams = c.opts.Streams
		}
		if !sim.SampleEligible(cfg) {
			continue
		}
		p := profileConfig(cfg)
		k, err := ConfigKey(p)
		if err != nil {
			continue // the per-run path surfaces the same error
		}
		g, ok := byKey[k]
		if !ok {
			g = &group{profile: p}
			byKey[k] = g
			groups = append(groups, g)
		}
		g.members = append(g.members, i)
	}
	c.dispatch(ctx, len(groups), func(k int) {
		c.runProfile(ctx, groups[k].profile, groups[k].members)
	}, func(int) {})
}

// runProfile executes one telemetry-only profile, clusters it, and
// stamps the resulting plan on every member index. Any failure —
// simulation error, panic, or a series too short to cluster — leaves
// the members on the full-ROI path.
func (c *campaign) runProfile(ctx context.Context, profile sim.Config, members []int) {
	telemetry.Phase.ProfileRuns.Add(1)
	rctx, cancel := c.deadline(ctx, 1)
	res, err := safeCall(sim.RunContext, rctx, profile)
	cancel()
	var plan *phase.Plan
	if err == nil {
		plan, err = phase.Analyze(res.Telemetry, phase.Options{}, profile.Seed)
	}
	if err != nil {
		telemetry.Phase.ProfileFailures.Add(1)
		c.logf("sampling profile for %s (seed %d) failed; %d run(s) stay on the full-ROI path: %v",
			profile.Workload, profile.Seed, len(members), err)
		return
	}
	telemetry.Phase.PlansBuilt.Add(1)
	telemetry.Phase.PhasesFound.Add(int64(plan.Phases))
	c.logf("sampling plan for %s (seed %d): %s — %d run(s)",
		profile.Workload, profile.Seed, plan, len(members))
	for _, i := range members {
		c.plans[i] = plan
	}
}

package runner

import (
	"context"
	"sort"
	"sync"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Fan-out phase: before the per-run execution starts, the orchestrator
// groups pending configs that share a primary record stream
// (sim.FanGroupKey) and runs each group through sim.RunFanGroup — one
// trace decode feeding every point. Points that fail inside a group
// (chaos panic, stall, abort) fall back to the per-run path carrying
// one prior attempt, so they re-enter the normal retry/backoff ladder
// at the next rung instead of retrying immediately; the fan-out phase
// itself never consumes per-run retry budget.
//
// Like every phase, the fan phase runs as pool tasks: each group is one
// task on the campaign's queue and holds one worker slot, so
// Options.Workers (or the shared pool's size) bounds how many groups are
// in flight and Options.FanMaxGroup bounds each group's size. The fan
// barrier keeps a group's points within one decoded batch of each
// other, so a group costs one decode buffer plus one simulator's private
// state per point; the campaign's peak footprint is at most Workers such
// groups. On a shared pool (the campaign service) concurrent campaigns'
// groups interleave under fair scheduling, and a draining pool sheds
// not-yet-started groups back to the journal-pending state while
// in-flight groups finish and checkpoint.
//
// A group is only fanned when every member is actually pending. A
// resumed campaign whose journal already covers part of a group leaves
// a partial group whose remaining points run on the per-run path: the
// journal was written by per-run attempts, and a resume should finish
// the way it started rather than switch execution strategy mid-sweep.

// fanGroups partitions the pending indices into fan-out groups and the
// indices that stay on the sequential path. cfgs' indices are grouped
// by FanGroupKey over all keyed configs; a group is returned only when
// it has at least two members, all of them pending. maxGroup >= 2 caps
// group size (load shedding): oversized groups are split into chunks of
// at most maxGroup points, and a leftover singleton rides the per-run
// path.
func fanGroups(cfgs []sim.Config, keys []string, pending []int, maxGroup int, resumed func(int) bool) (groups [][]int, rest []int) {
	pend := make(map[int]bool, len(pending))
	for _, i := range pending {
		pend[i] = true
	}
	byKey := make(map[string][]int)
	var order []string
	for i, cfg := range cfgs {
		if keys[i] == "" {
			continue // unhashable: already failed up front
		}
		k, err := sim.FanGroupKey(cfg)
		if err != nil {
			continue // the sequential path will surface the same error
		}
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], i)
	}
	grouped := make(map[int]bool)
	for _, k := range order {
		g := byKey[k]
		if len(g) < 2 {
			continue
		}
		whole := true
		for _, i := range g {
			if !pend[i] || resumed(i) {
				whole = false
				break
			}
		}
		if !whole {
			continue
		}
		for len(g) >= 2 {
			n := len(g)
			if maxGroup >= 2 && n > maxGroup {
				n = maxGroup
			}
			if n < 2 {
				break
			}
			chunk := g[:n]
			g = g[n:]
			groups = append(groups, chunk)
			for _, i := range chunk {
				grouped[i] = true
			}
		}
	}
	for _, i := range pending {
		if !grouped[i] {
			rest = append(rest, i)
		}
	}
	return groups, rest
}

// runFanPhase executes the fan-out groups, one pool task per group, and
// returns the indices still pending for the per-run phase: non-grouped
// points, fallbacks, and the points of groups that never started (shed
// by a draining pool or left behind by cancellation), which re-enter at
// rung 0 where the per-run phase's cancel accounting applies.
func (c *campaign) runFanPhase(ctx context.Context, pending []int) []int {
	groups, rest := fanGroups(c.cfgs, c.keys, pending, c.opts.FanMaxGroup, func(i int) bool {
		return c.out.Results[i] != nil
	})
	var rmu sync.Mutex
	requeue := func(idx []int) {
		rmu.Lock()
		rest = append(rest, idx...)
		rmu.Unlock()
	}
	c.dispatch(ctx, len(groups), func(gi int) {
		requeue(c.runFanGroup(ctx, gi, groups[gi]))
	}, func(gi int) {
		requeue(groups[gi])
	})
	sort.Ints(rest)
	return rest
}

// runFanGroup executes one fan-out group and returns the indices that
// must drain through the per-run path: points that failed in-group
// (carrying one prior attempt so the per-run executor re-enters the
// backoff ladder instead of retrying immediately) plus points another
// campaign is computing right now (no prior attempt — the per-run path
// collapses them onto that computation via the store's single-flight).
func (c *campaign) runFanGroup(ctx context.Context, gi int, g []int) (fallback []int) {
	run := g
	published := make(map[string]*sim.Result)
	st := c.opts.Store
	if st != nil {
		// The admission-time store check may be stale by the time this
		// group is scheduled: re-check each point, then claim the rest in
		// one sweep so concurrent campaigns running the same configs wait
		// for this group instead of re-decoding and re-simulating it.
		run = nil
		var claimKeys []string
		for _, i := range g {
			if res, ok := st.Lookup(c.keys[i]); ok {
				c.land(i, res, 0, false)
				continue
			}
			run = append(run, i)
			claimKeys = append(claimKeys, c.keys[i])
		}
		claimed, finish := st.BeginFlights(claimKeys)
		// The deferred finish releases waiters even when the group
		// panics; points the group never published wake into their own
		// attempts.
		defer func() { finish(published) }()
		kept := run[:0]
		for _, i := range run {
			if claimed[c.keys[i]] {
				kept = append(kept, i)
			} else {
				fallback = append(fallback, i)
			}
		}
		run = kept
		if len(run) == 0 {
			return fallback
		}
	}

	gcfgs := make([]sim.Config, len(run))
	for j, i := range run {
		cfg := c.cfgs[i]
		if cfg.Streams == nil {
			cfg.Streams = c.opts.Streams
		}
		gcfgs[j] = cfg
	}
	gctx, cancel := c.deadline(ctx, len(run))
	telemetry.Fanout.GroupsFormed.Add(1)
	telemetry.Fanout.PointsFanned.Add(int64(len(run)))
	telemetry.Fanout.DecodePasses.Add(1)
	telemetry.Fanout.DecodePassesSaved.Add(int64(len(run) - 1))
	pts := sim.RunFanGroup(gctx, gcfgs, c.opts.StallGrace)
	cancel()

	failed := 0
	for j, pt := range pts {
		i := run[j]
		if pt.Err != nil {
			failed++
			telemetry.Fanout.FallbackPoints.Add(1)
			c.logf("fan-out group %d: point %d (%s %s p=%g) fell back to sequential: %v",
				gi, i, c.cfgs[i].Mode, c.cfgs[i].Workload, c.cfgs[i].PInduce, pt.Err)
			// Each index belongs to exactly one group, so prior[i] is
			// written by exactly one task.
			c.prior[i]++
			fallback = append(fallback, i)
			continue
		}
		c.land(i, pt.Res, 1, true)
		// Fan-group points are full-fidelity — persist them for every
		// future campaign, after the journal append, and publish them to
		// any concurrent campaigns waiting on this group's flights.
		if st != nil {
			published[c.keys[i]] = pt.Res
			if err := st.Put(c.keys[i], pt.Res); err != nil {
				c.logf("store: caching fan-out result of run %d failed (campaign unaffected): %v", i, err)
			}
		}
	}
	if failed == len(run) {
		telemetry.Fanout.GroupAborts.Add(1)
	}
	return fallback
}

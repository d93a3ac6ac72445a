package sim

// Fan-out sweep execution: run every point of a sweep group that shares
// a (workload, seed) primary stream against ONE decode of that stream.
//
// Two executors implement it, picked per group:
//
//   - The digest executor covers the common sweep shape — single-core
//     Isolation/PInTE points on a non-inclusive, prefetcher-free
//     hierarchy. Under that shape the whole front end (trace decode,
//     branch prediction, L1I/L1D/L2) evolves identically across points:
//     nothing below the L2 feeds back into it, so one capture-mode pass
//     (cache.FrontCapture) runs it once, records the sparse stream of
//     below-L2 work, and checkpoints its core's counters where a
//     follower acts (end of warm-up, sample boundaries, end of ROI).
//     Followers replay just that stream against their own private LLC +
//     memory + engine through the production descend and writeback
//     code, and offset the front's clock by what each descent cost them
//     beyond the front's price. A follower's cost is O(LLC-bound
//     events), not O(records): everything else is the front's, once.
//
//   - The lockstep executor covers everything else the group key admits
//     (SecondTrace points, inclusive hierarchies, prefetchers, telemetry
//     collection, partitioning): each point is a full RunContext whose
//     primary stream is one read-only view of a shared decode
//     (replay.Fan). Only the decode is shared, but that is still one
//     pass instead of N.
//
// Both decode each batch exactly once; replay.Fan's barrier keeps every
// consumer within one batch of the decode head so views stay valid.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/replay"
	"repro/internal/trace"
)

// fanQuantum mirrors the system scheduler's quantum: the follower polls
// sampling and stop conditions at the same instruction boundaries as a
// sequential run, so record consumption and sample placement match.
const fanQuantum = uint64(cpu.DefaultQuantum)

// errFanAborted reports a follower whose shared front ended before it.
var errFanAborted = errors.New("sim: fan-out front ended before its followers")

// FanPoint is one sweep point's outcome from RunFanGroup: exactly one
// of Res and Err is non-nil.
type FanPoint struct {
	Res *Result
	Err error
}

// FanGroupKey returns the grouping key for fan-out scheduling. Two
// configs with equal keys consume byte-identical primary record streams
// at identical scheduling boundaries — primary consumption depends only
// on the workload spec, Seed, and the quantum-aligned Warmup/ROI window,
// never on what happens below the L2 or on co-runners — so they can
// share one decode. The key is the normalized config with exactly the
// consumption-neutral per-point fields cleared.
func FanGroupKey(cfg Config) (string, error) {
	n := cfg.Normalized()
	n.Mode = Isolation
	n.PInduce = 0
	n.EngineSeed = 0
	n.Adversary = ""
	n.AdversarySpec = nil
	n.Adversaries = nil
	n.IndependentPeriod = 0
	n.DRAMContentionProb = 0
	n.DRAMContentionPenalty = 0
	n.Partitioning = ""
	n.ReallocEvery = 0
	n.LLCWayAllocation = 0
	n.TelemetryEvery = 0
	b, err := json.Marshal(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// fanDigestEligible reports whether a (defaulted) config can ride the
// digest executor: the front end must be point-invariant, which the
// capture mode's preconditions (non-inclusive, prefetcher-free) plus a
// single-core mode guarantee, and nothing outside the captured stream
// may observe the run (telemetry reads private-level counters the
// follower does not carry).
func fanDigestEligible(cfg Config) bool {
	if cfg.Mode != Isolation && cfg.Mode != PInTE {
		return false
	}
	if cfg.Hier.Inclusion != cache.NonInclusive {
		return false
	}
	if pf := cfg.Hier.Prefetch; pf != "" && pf != "000" {
		return false
	}
	if cfg.Partitioning != "" || cfg.LLCWayAllocation != 0 {
		return false
	}
	if cfg.IndependentPeriod != 0 || cfg.DRAMContentionProb != 0 {
		return false
	}
	return cfg.TelemetryEvery == 0
}

// RunFanGroup executes a fan-out group: every config must carry the
// same FanGroupKey (the scheduler in internal/runner groups by it).
// The group's primary stream is decoded once and shared. Points fail
// independently — a panicking or faulted point surfaces in its own
// FanPoint while siblings complete. When ctx ends the group aborts;
// points still wedged grace later (a chaos hang) are abandoned with
// ErrStalled, mirroring the sequential stall watchdog. grace <= 0 waits
// indefinitely, like a disabled watchdog.
func RunFanGroup(ctx context.Context, cfgs []Config, grace time.Duration) []FanPoint {
	pts := make([]FanPoint, len(cfgs))
	if len(cfgs) == 0 {
		return pts
	}
	norm := make([]Config, len(cfgs))
	var key0 string
	digest := true
	for i, c := range cfgs {
		n := c.withDefaults()
		if err := n.validateDefaulted(); err != nil {
			return failAll(pts, err)
		}
		k, err := FanGroupKey(c)
		if err != nil {
			return failAll(pts, err)
		}
		if i == 0 {
			key0 = k
		} else if k != key0 {
			return failAll(pts, fmt.Errorf("%w: fan group mixes stream-incompatible configs", ErrBadConfig))
		}
		if !fanDigestEligible(n) {
			digest = false
		}
		norm[i] = n
	}
	start := time.Now()
	spec, err := specFor(norm[0].Workload, norm[0].WorkloadSpec)
	if err != nil {
		return failAll(pts, err)
	}
	// fresh reopens the group's primary stream; the fan falls back to it
	// when a shared decode cannot continue.
	streams, seed := norm[0].streams(), primarySeed(norm[0])
	fresh := func() (trace.Source, error) { return streams.Source(spec, seed, 0) }
	if digest {
		runFanDigest(ctx, norm, spec, fresh, grace, start, pts)
	} else {
		runFanLockstep(ctx, norm, spec, fresh, grace, pts)
	}
	return pts
}

func failAll(pts []FanPoint, err error) []FanPoint {
	for i := range pts {
		pts[i] = FanPoint{Err: err}
	}
	return pts
}

// fanDone carries one point's outcome to the collector.
type fanDone struct {
	i   int
	res *Result
	err error
}

// collectFan gathers point outcomes. When ctx ends it aborts the fan so
// barrier-parked points unwind with the context's taxonomy error, then
// abandons any point still silent after grace.
func collectFan(ctx context.Context, fan *replay.Fan, ch <-chan fanDone, grace time.Duration, pts []FanPoint) {
	finished := make([]bool, len(pts))
	got := 0
	recv := func(d fanDone) {
		pts[d.i] = FanPoint{Res: d.res, Err: d.err}
		finished[d.i] = true
		got++
	}
	for got < len(pts) {
		select {
		case d := <-ch:
			recv(d)
			continue
		case <-ctx.Done():
		}
		break
	}
	if got == len(pts) {
		return
	}
	fan.Abort(ctxError(ctx))
	var deadline <-chan time.Time
	if grace > 0 {
		t := time.NewTimer(grace)
		defer t.Stop()
		deadline = t.C
	}
	for got < len(pts) {
		select {
		case d := <-ch:
			recv(d)
		case <-deadline:
			// Chaos hang: the point's goroutine never reports. Abandon it
			// exactly as the sequential stall watchdog abandons a wedged
			// run; the leaked goroutine's reader view stays valid (the fan
			// switches decode buffers once its reader is detached).
			for i := range pts {
				if !finished[i] {
					pts[i] = FanPoint{Err: ErrStalled}
					finished[i] = true
					got++
				}
			}
		}
	}
}

// ---------------------------------------------------------------------
// Lockstep executor
// ---------------------------------------------------------------------

// fanProvider routes a RunContext's primary-stream request to the
// point's shared fan view and delegates everything else (nothing in
// practice: adversary cores always build fresh generators).
type fanProvider struct {
	reader *replay.FanReader
	under  trace.SourceProvider
	fp     string
	seed   uint64
}

func (p *fanProvider) Source(spec trace.Spec, seed, base uint64) (trace.Source, error) {
	if base == 0 && seed == p.seed && spec.Fingerprint() == p.fp {
		return p.reader, nil
	}
	return p.under.Source(spec, seed, base)
}

// runFanLockstep runs each point as a full simulation over a shared
// decode. Per-point chaos sites (sim.source, trace.read) fire inside
// each point's own RunContext, exactly as they do sequentially.
func runFanLockstep(ctx context.Context, norm []Config, spec trace.Spec, fresh func() (trace.Source, error), grace time.Duration, pts []FanPoint) {
	src, err := fresh()
	if err != nil {
		failAll(pts, err)
		return
	}
	fan := replay.NewFan(src, len(norm), 0, fresh)
	streams, seed, fp := norm[0].streams(), primarySeed(norm[0]), spec.Fingerprint()
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan fanDone, len(norm))
	for i := range norm {
		rd := fan.Reader(i)
		cfg := norm[i]
		cfg.Streams = &fanProvider{reader: rd, under: streams, fp: fp, seed: seed}
		go func(i int, cfg Config) {
			defer rd.Detach()
			res, err := func() (res *Result, err error) {
				defer func() {
					if r := recover(); r != nil {
						res, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
					}
				}()
				fault.InjectWorker()
				return RunContext(gctx, cfg)
			}()
			ch <- fanDone{i: i, res: res, err: err}
		}(i, cfg)
	}
	collectFan(ctx, fan, ch, grace, pts)
}

// ---------------------------------------------------------------------
// Digest executor
// ---------------------------------------------------------------------

// errDigestMismatch reports a follower whose digest disagrees with the
// records it shares a batch with, or lacks a checkpoint the follower
// must act at: the front and the follower no longer describe the same
// run, so the point fails rather than price a different one.
var errDigestMismatch = errors.New("sim: fan digest mismatch")

// fanDigest is one decoded batch's front-end digest: the accesses that
// left the L1 (with their L2 writeback victims), keyed by absolute
// instruction index and stamped with the front's clock, and a
// checkpoint at each quantum boundary in the batch where followers act.
// Double-buffered by the front; the barrier guarantees a buffer is idle
// before reuse.
type fanDigest struct {
	events []cache.FrontEvent
	wbs    []uint64
	ckpts  []fanCheckpoint
	err    error
}

// fanCheckpoint is the front's point-invariant state after instrs
// instructions: everything a follower reports that no LLC outcome
// moves, plus the clock and AMAT inputs it offsets by its own descents.
type fanCheckpoint struct {
	instrs, cycles   uint64
	stats            cpu.Stats
	dataAcc, dataLat uint64
}

// fanStops is the schedule of quantum boundaries where a follower acts:
// the end of warm-up, every sample boundary on the sampler's nextAt
// schedule, and the end of the ROI (RunContext's stop conditions). The
// front checkpoints exactly there and a follower expects a checkpoint
// exactly there, so a checkpoint missing from a digest is caught. cfg
// is defaulted, so the warm-up is never empty.
type fanStops struct {
	cfg                Config
	inROI              bool
	roiEnd, nextSample uint64
}

// next returns the boundary of the next stop: the first quantum
// boundary at or past what falls due next.
func (s *fanStops) next() uint64 {
	due := s.cfg.WarmupInstrs
	if s.inROI {
		due = min(s.roiEnd, s.nextSample)
	}
	return (due + fanQuantum - 1) / fanQuantum * fanQuantum
}

// pass steps the schedule past the stop at instrs and reports whether
// it entered or ended the ROI there.
func (s *fanStops) pass(instrs uint64) (enter, end bool) {
	if !s.inROI {
		s.inROI = true
		s.roiEnd = instrs + s.cfg.ROIInstrs
		s.nextSample = instrs + s.cfg.SampleEvery
		return true, false
	}
	if instrs >= s.nextSample {
		s.nextSample = instrs + s.cfg.SampleEvery
	}
	return false, instrs >= s.roiEnd
}

// fanFront is the digest executor's shared front end.
type fanFront struct {
	feed  *replay.FanReader
	cap   *cache.FrontCapture
	ckpts []fanCheckpoint
	hier  *cache.Hierarchy // exposed to followers after the final digest
	bufs  [2]fanDigest
	cur   int
	chans []chan *fanDigest
	alive []atomic.Bool
	begun bool
}

// publish seals the digest accumulated over the current batch, hands it
// to every live follower, and re-arms accumulation in the other buffer.
// The barrier makes the swap safe: by the time the front obtains batch
// g+1, every follower has finished batch g, hence digest g-1's buffer is
// idle. Sends cannot block — a follower that consumed digest g-1 has
// drained its channel (capacity 2 absorbs the one racing send a dying
// follower may still receive).
func (fr *fanFront) publish(err error) {
	if !fr.begun {
		// First call: no batch has been consumed yet, nothing to seal.
		fr.begun = true
		fr.rearm()
		return
	}
	d := &fr.bufs[fr.cur]
	d.events = fr.cap.Events
	d.wbs = fr.cap.WBAddrs
	d.ckpts = fr.ckpts
	d.err = err
	for i := range fr.chans {
		if fr.alive[i].Load() {
			fr.chans[i] <- d
		}
	}
	fr.cur ^= 1
	fr.rearm()
}

func (fr *fanFront) rearm() {
	d := &fr.bufs[fr.cur]
	fr.cap.Events = d.events[:0]
	fr.cap.WBAddrs = d.wbs[:0]
	fr.ckpts = d.ckpts[:0]
}

// frontFeed is the front core's trace reader: it seals and publishes the
// previous batch's digest before blocking on the barrier for the next
// one — the order matters, since followers must hold digest g to finish
// batch g and reach the barrier for g+1. It deliberately does not
// implement trace.Rewinder: the primary streams are unbounded, so a
// rewind request means the stream broke and the front must stop.
type frontFeed struct {
	fr *fanFront
}

func (f *frontFeed) NextSlice() ([]trace.Record, error) {
	f.fr.publish(nil)
	return f.fr.feed.NextSlice()
}

func (f *frontFeed) Next(rec *trace.Record) error { return f.fr.feed.Next(rec) }

// run executes the capture pass: a real core against a capture-mode
// hierarchy, stopping at the boundaries RunContext stops at, so the
// front consumes the same quantum-aligned record count as a sequential
// run of any group member. At each stop it checkpoints; a checkpoint
// joins the current batch's digest, since the core fetches the next
// batch only when it runs on.
func (fr *fanFront) run(cfg Config) error {
	m, err := newMachine(cfg, wiring{below: noMem{}, feed: &frontFeed{fr: fr}})
	if err != nil {
		return err
	}
	core := m.core0
	if err := m.hier.SetFrontCapture(fr.cap, &core.Instrs); err != nil {
		return err
	}
	fr.hier = m.hier
	stops := fanStops{cfg: cfg}
	for {
		at := stops.next()
		if err := m.sys.Run(func(*cpu.Core) bool { return core.Instrs >= at }); err != nil {
			return err
		}
		if core.Instrs < at {
			return io.ErrUnexpectedEOF
		}
		enter, end := stops.pass(core.Instrs)
		if enter {
			m.resetStats()
		}
		h := &m.hier.Stats
		fr.ckpts = append(fr.ckpts, fanCheckpoint{core.Instrs, core.Cycles, core.Stats,
			h.DemandDataAccesses[0], h.DemandDataLatency[0]})
		if end {
			return nil
		}
	}
}

// noMem backs the capture-mode hierarchy: capture stops every access at
// the L2 boundary, so a memory touch means the mode's preconditions were
// violated — fail loudly rather than corrupt the equivalence.
type noMem struct{}

func (noMem) Access(now, addr uint64, isWrite bool) uint64 {
	panic("sim: capture-mode hierarchy touched memory")
}

// startFanFront opens the group's primary stream behind a fan with a
// reader for the front and one per follower, and starts the front's
// capture pass. Follower i reads fan reader i+1 and digest channel i.
//
// The front drives the group's only decode, so the per-run sim.source
// and trace.read sites strike the shared stream: a fired fault fails the
// whole group, which then retries per run.
func startFanFront(norm []Config, spec trace.Spec, fresh func() (trace.Source, error)) (*replay.Fan, *fanFront, error) {
	n := len(norm)
	src, err := openPrimary(norm[0], spec)
	if err != nil {
		return nil, nil, err
	}
	fan := replay.NewFan(src, n+1, 0, fresh)

	fr := &fanFront{feed: fan.Reader(0), cap: &cache.FrontCapture{}}
	fr.chans = make([]chan *fanDigest, n)
	fr.alive = make([]atomic.Bool, n)
	for i := 0; i < n; i++ {
		fr.chans[i] = make(chan *fanDigest, 2)
		fr.alive[i].Store(true)
	}

	go func() {
		var ferr error
		defer func() {
			if r := recover(); r != nil {
				ferr = &PanicError{Value: r, Stack: debug.Stack()}
			}
			if ferr != nil {
				// Unwedge followers parked at the barrier, then flush the
				// error marker for followers parked at a digest receive.
				fan.Abort(ferr)
			}
			fr.publish(ferr)
			fr.feed.Detach()
			for _, ch := range fr.chans {
				close(ch)
			}
		}()
		ferr = fr.run(norm[0])
	}()
	return fan, fr, nil
}

// runFanDigest runs the digest executor: one front capture pass feeding
// len(norm) followers.
func runFanDigest(ctx context.Context, norm []Config, spec trace.Spec, fresh func() (trace.Source, error), grace time.Duration, start time.Time, pts []FanPoint) {
	fan, fr, err := startFanFront(norm, spec, fresh)
	if err != nil {
		failAll(pts, err)
		return
	}
	ch := make(chan fanDone, len(norm))
	for i := range norm {
		go func(i int) {
			res, err := runFanFollower(norm[i], fr, fan.Reader(i+1), fr.chans[i], &fr.alive[i], start)
			ch <- fanDone{i: i, res: res, err: err}
		}(i)
	}
	collectFan(ctx, fan, ch, grace, pts)
}

// fanFollower is one point's private state in the digest executor: the
// point-dependent machine (LLC, DRAM, engine) and how far its clock and
// AMAT inputs have drifted from the front's.
//
// A follower differs from the front only where an access descends past
// the L2: the front priced the descent at the LLC hit latency, the
// follower at what its own LLC and memory answer. So its clock is the
// front's plus cycOff, the sum of those differences (after the MLP
// divide for loads), and it visits nothing but descents, writebacks and
// checkpoints.
type fanFollower struct {
	cfg   Config
	m     *machine
	hier  *cache.Hierarchy // m.hier, kept one load away on the access path
	stops fanStops

	base    uint64 // instruction index of the current batch's first record
	instrs  uint64 // at the last checkpoint
	cycles  uint64 // at the last event or checkpoint; the writeback sink's clock
	stats   cpu.Stats
	samples []Sample
	smp     *sampler

	// cycOff is the follower's clock minus the front's; stallOff and
	// latOff are its LoadStall and DemandDataLatency minus the front's
	// since the ROI began.
	cycOff, stallOff, latOff uint64

	l1iLat, l1dLat, l2Lat, llcLat, mlp uint64

	roiStartI, roiStartC uint64
}

// runFanFollower builds and drives one follower to completion.
func runFanFollower(cfg Config, fr *fanFront, rd *replay.FanReader, dig <-chan *fanDigest, alive *atomic.Bool, start time.Time) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
		alive.Store(false)
		rd.Detach()
	}()
	fault.InjectWorker()

	st := &fanFollower{cfg: cfg, stops: fanStops{cfg: cfg}}
	m, err := newMachine(cfg, wiring{clock: &st.cycles})
	if err != nil {
		return nil, err
	}
	st.m, st.hier = m, m.hier

	st.mlp = uint64(m.cpu.Resolved().MLP)
	st.l1iLat = st.hier.L1I(0).HitLatency()
	st.l1dLat = st.hier.L1D(0).HitLatency()
	st.l2Lat = st.hier.L2(0).HitLatency()
	st.llcLat = st.hier.LLC().HitLatency()

	for {
		view, verr := rd.NextSlice()
		if verr != nil {
			return nil, verr
		}
		d, ok := <-dig
		if !ok {
			return nil, errFanAborted
		}
		if d.err != nil {
			return nil, d.err
		}
		done, berr := st.runBatch(view, d)
		if berr != nil {
			return nil, berr
		}
		if done {
			break
		}
	}

	res = &Result{Config: cfg, Samples: st.samples}
	fillResult(res, st.instrs-st.roiStartI, st.cycles-st.roiStartC,
		&st.stats, fr.hier, st.hier, m.engine)
	res.WallTime = time.Since(start)
	return res, nil
}

// runBatch replays one batch's digest: each event in issue order, and
// each checkpoint after the events before it. It reports whether the
// ROI ended.
func (st *fanFollower) runBatch(view []trace.Record, d *fanDigest) (bool, error) {
	end := st.base + uint64(len(view))
	ev, wbs := d.events, d.wbs
	k, wb := 0, 0
	var err error
	for c := 0; c <= len(d.ckpts); c++ {
		lim := ^uint64(0) // past the last checkpoint: every event left
		if c < len(d.ckpts) {
			lim = d.ckpts[c].instrs
			if want := st.stops.next(); lim != want || lim > end {
				return false, fmt.Errorf("%w: checkpoint at instruction %d, want %d (batch ends at %d)",
					errDigestMismatch, lim, want, end)
			}
		}
		for ; k < len(ev) && ev[k].Instr < lim; k++ {
			if wb, err = st.replay(view, ev, k, wbs, wb); err != nil {
				return false, err
			}
		}
		if c < len(d.ckpts) && st.checkpoint(&d.ckpts[c]) {
			return true, nil
		}
	}
	if next := st.stops.next(); wb != len(wbs) || next <= end {
		return false, fmt.Errorf("%w: batch ends at %d with %d of %d writebacks claimed and the next stop at %d",
			errDigestMismatch, end, wb, len(wbs), next)
	}
	st.base = end
	return false, nil
}

// replay runs front event k against the follower's own LLC and memory:
// it checks the event against its trace record, descends when the
// front's L2 missed, pushes the dirty L2 victims the access evicted,
// and adds what the descent cost beyond the front's price to the
// offsets. The arithmetic is cpu.Core.retire/loadStall's, differenced.
func (st *fanFollower) replay(view []trace.Record, ev []cache.FrontEvent, k int, wbs []uint64, wb int) (int, error) {
	e := &ev[k]
	i := e.Instr - st.base
	if i >= uint64(len(view)) {
		return wb, fmt.Errorf("%w: event at instruction %d outside batch [%d, %d)",
			errDigestMismatch, e.Instr, st.base, st.base+uint64(len(view)))
	}
	rec := &view[i]
	ok, dependent, l1 := false, false, st.l1dLat
	switch e.Kind {
	case cache.Ifetch:
		ok, l1 = e.Addr == rec.PC, st.l1iLat
	case cache.StoreAccess:
		ok = e.Addr == rec.Store
	case cache.Load:
		// Load0 issues before Load1, and a second load of the same
		// block hits, so only the first load event can be Load0's.
		first := k == 0 || ev[k-1].Instr != e.Instr || ev[k-1].Kind != cache.Load
		if first && e.Addr == rec.Load0 {
			ok, dependent = true, rec.Dependent
		} else {
			ok = e.Addr == rec.Load1
		}
	}
	if !ok || wb+int(e.WBs) > len(wbs) {
		return wb, fmt.Errorf("%w: kind %d event for %#x does not match instruction %d", errDigestMismatch, e.Kind, e.Addr, e.Instr)
	}

	st.cycles = e.Now + st.cycOff
	var extra uint64
	if e.Descend {
		extra = st.hier.DescendLLC(0, e.Addr, st.cycles+l1+st.l2Lat) - st.llcLat
	}
	for j := uint8(0); j < e.WBs; j++ {
		st.hier.WritebackToLLC(0, wbs[wb])
		wb++
	}
	if extra == 0 {
		return wb, nil
	}
	switch e.Kind {
	case cache.Ifetch:
		st.cycOff += extra
	case cache.Load:
		// Descents are rare enough to divide where cpu.Core shifts.
		front := st.l2Lat + st.llcLat
		stall := front + extra
		if !dependent {
			front, stall = front/st.mlp, stall/st.mlp
		}
		st.cycOff += stall - front
		st.stallOff += stall - front
		st.latOff += extra
	case cache.StoreAccess:
		// Stores retire through the write buffer: latency feeds the
		// AMAT inputs, no retirement stall.
		st.latOff += extra
	}
	return wb, nil
}

// checkpoint acts at a stop: the follower's counters become the front's
// plus its offsets, then it enters the ROI (RunContext's end-of-warm-up
// transition: event counters reset, clocks keep running), or samples and
// reports whether the ROI ended.
func (st *fanFollower) checkpoint(ck *fanCheckpoint) bool {
	st.instrs, st.cycles = ck.instrs, ck.cycles+st.cycOff
	enter, end := st.stops.pass(ck.instrs)
	if enter {
		st.m.resetStats()
		st.stallOff, st.latOff = 0, 0
		st.roiStartI, st.roiStartC = st.instrs, st.cycles
		st.smp = newSampler(st.cfg, &st.instrs, &st.cycles, st.hier)
		return false
	}
	st.stats = ck.stats
	st.stats.LoadStall += st.stallOff
	st.hier.Stats.DemandDataAccesses[0] = ck.dataAcc
	st.hier.Stats.DemandDataLatency[0] = ck.dataLat + st.latOff
	st.smp.maybeSample(&st.samples)
	return end
}

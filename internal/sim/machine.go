package sim

import (
	"context"
	"fmt"

	"repro/internal/branch"
	"repro/internal/cache"
	pinte "repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/partition"
	"repro/internal/trace"
)

// machine is the simulated hardware of one run. newMachine is the only
// place a Config becomes DRAM, a cache hierarchy, a PInTE engine and
// cores, so the full run, the phase-sampled run and both fan-out
// executors simulate the same machine by construction: every seed
// derivation and every default lives here once.
type machine struct {
	cpu     cpu.Config // primary core timing, MLP defaulted from the spec
	mem     *dram.DRAM // nil behind a capture front
	dramInj *pinte.DRAMContention
	hier    *cache.Hierarchy
	ctrl    partition.Controller
	engine  *pinte.Engine
	ticker  *pinte.Ticker
	sys     *cpu.System // nil when the caller keeps time itself
	core0   *cpu.Core
}

// wiring is what an executor chooses about its machine; the zero value
// builds a full run's.
type wiring struct {
	// below, when non-nil, stands in for memory behind the hierarchy
	// (the capture front's noMem): the machine then has no DRAM and no
	// engine.
	below cache.Memory
	// feed, when non-nil, drives the primary core instead of the
	// config's own stream (the capture front's digest feed).
	feed trace.Reader
	// clock, when non-nil, is the cycle count the engine's writeback
	// sink stamps DRAM writes with, and no cores are built: the caller
	// prices instructions itself (a fan-out follower). nil stamps with
	// the primary core's cycles.
	clock *uint64
}

// adversaryBase offsets each co-runner's address space so co-runners
// never share data blocks (distinct physical footprints).
const adversaryBase = 1 << 42

// primarySeed seeds the primary core's stream. newMachine derives the
// other seeds (adversaries, engine, DRAM contention) from cfg.Seed.
func primarySeed(cfg Config) uint64 { return cfg.Seed + 1 }

// streams resolves the primary core's stream provider: the replay cache
// when one is attached, a fresh generator otherwise.
func (c Config) streams() trace.SourceProvider {
	if c.Streams == nil {
		return trace.Generate{}
	}
	return c.Streams
}

// openPrimary opens cfg's primary stream through the sim.source fault
// site. Chaos mode interposes on the stream so trace.read faults surface
// through the reader's error path mid-run; it is never wrapped in
// production (Enabled() is false there), keeping the hot call edge
// devirtualised.
func openPrimary(cfg Config, spec trace.Spec) (trace.Source, error) {
	src, err := cfg.streams().Source(spec, primarySeed(cfg), 0)
	if err == nil {
		err = fault.Err(fault.SiteSimSource)
	}
	if err != nil {
		return nil, err
	}
	if fault.Enabled() {
		src = &faultSource{src: src}
	}
	return src, nil
}

// newMachine wires the hardware of cfg, which must be defaulted and
// validated, as w directs.
func newMachine(cfg Config, w wiring) (*machine, error) {
	spec, err := specFor(cfg.Workload, cfg.WorkloadSpec)
	if err != nil {
		return nil, err
	}
	m := &machine{cpu: cfg.CPU}
	if m.cpu.MLP == 0 {
		m.cpu.MLP = spec.MLP
	}

	below := w.below
	if below == nil {
		dcfg := dram.Default()
		if cfg.DRAM != nil {
			dcfg = *cfg.DRAM
		}
		if m.mem, err = dram.New(dcfg); err != nil {
			return nil, err
		}
		below = m.mem
		if cfg.DRAMContentionProb > 0 {
			m.dramInj, err = pinte.NewDRAMContention(pinte.DRAMContentionParams{
				Probability:   cfg.DRAMContentionProb,
				PenaltyCycles: cfg.DRAMContentionPenalty,
				Seed:          cfg.Seed + 11,
			}, m.mem)
			if err != nil {
				return nil, err
			}
			below = m.dramInj
		}
	}

	cores := 1
	if cfg.Mode == SecondTrace {
		cores = 2 + len(cfg.Adversaries)
	}
	hcfg := cfg.Hier
	hcfg.Cores = cores
	hcfg.Seed = cfg.Seed
	if m.hier, err = cache.NewHierarchy(hcfg, below); err != nil {
		return nil, err
	}
	llc := m.hier.LLC()
	if cfg.Partitioning != "" {
		if m.ctrl, err = partition.New(cfg.Partitioning, cores); err != nil {
			return nil, err
		}
		m.ctrl.Attach(llc)
	}
	if n := cfg.LLCWayAllocation; n > 0 {
		if n > llc.Ways() {
			return nil, fmt.Errorf("%w: LLC way allocation %d exceeds %d ways",
				ErrBadConfig, n, llc.Ways())
		}
		mask := uint64(1)<<uint(n) - 1
		for core := 0; core < cores; core++ {
			if err := llc.SetWayPartition(core, mask); err != nil {
				return nil, err
			}
		}
	}

	clock := w.clock
	if clock == nil {
		src := w.feed
		if src == nil {
			if src, err = openPrimary(cfg, spec); err != nil {
				return nil, err
			}
		}
		bp, err := branch.New(cfg.Branch)
		if err != nil {
			return nil, err
		}
		m.core0 = cpu.NewCore(0, m.cpu, src, m.hier, bp)
		m.sys = cpu.NewSystem(m.core0)
		m.sys.RestartFinished = true
		clock = &m.core0.Cycles
	}

	if cfg.Mode == PInTE && m.mem != nil {
		eseed := cfg.EngineSeed
		if eseed == 0 {
			eseed = cfg.Seed + 7
		}
		if m.engine, err = pinte.NewEngine(pinte.Params{PInduce: cfg.PInduce, Seed: eseed}); err != nil {
			return nil, err
		}
		if cfg.IndependentPeriod > 0 {
			// Extension: the flow runs on a schedule instead of on LLC
			// accesses.
			if m.ticker, err = pinte.NewTicker(m.engine, llc); err != nil {
				return nil, err
			}
		} else {
			llc.SetInjector(m.engine)
		}
		mem := m.mem
		llc.SetWritebackSink(func(addr uint64) {
			mem.Access(*clock, addr, true)
		})
	}

	if cfg.Mode == SecondTrace && m.sys != nil {
		names := append([]string{cfg.Adversary}, cfg.Adversaries...)
		for i, name := range names {
			var override *trace.Spec
			if i == 0 {
				override = cfg.AdversarySpec
			}
			aspec, err := specFor(name, override)
			if err != nil {
				return nil, err
			}
			// Adversary streams always come from a fresh generator, never
			// the replay cache: an adversary core consumes records until
			// the primary finishes, so its stream length scales with the
			// slowest pairing's cycle count rather than the configured
			// ROI — recording such unbounded streams costs more arena
			// memory and pack work than their replay returns.
			gen, err := trace.Generate{}.Source(aspec, cfg.Seed+2+uint64(i),
				adversaryBase*uint64(i+1))
			if err != nil {
				return nil, err
			}
			advCPU := cfg.CPU
			advCPU.MLP = aspec.MLP
			bp, err := branch.New(cfg.Branch)
			if err != nil {
				return nil, err
			}
			m.sys.Cores = append(m.sys.Cores, cpu.NewCore(1+i, advCPU, gen, m.hier, bp))
		}
	}
	return m, nil
}

// run steps the cores until step, called between scheduling quanta,
// reports the target reached, or until ctx ends — then it returns the
// context's taxonomy error.
func (m *machine) run(ctx context.Context, step func() bool) error {
	var stopErr error
	err := m.sys.Run(func(*cpu.Core) bool {
		reached := step()
		select {
		case <-ctx.Done():
			stopErr = ctxError(ctx)
			return true
		default:
			return reached
		}
	})
	if err != nil {
		return err
	}
	return stopErr
}

// resetStats is the end-of-warm-up transition: event counters reset,
// clocks keep running (they are physical time shared with the DRAM bank
// timestamps).
func (m *machine) resetStats() {
	m.hier.ResetStats()
	if m.sys != nil {
		for _, c := range m.sys.Cores {
			c.ResetStats()
		}
	}
	if m.mem != nil {
		m.mem.Stats = dram.Stats{}
	}
	if m.engine != nil {
		m.engine.ResetStats()
	}
	if m.dramInj != nil {
		m.dramInj.ResetStats()
	}
}

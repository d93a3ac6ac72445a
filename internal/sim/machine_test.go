package sim

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/dram"
)

// knobbedPInTE turns every machine knob a run's hardware is built from
// away from its default: DRAM timing, core width, mispredict penalty and
// MLP, the branch predictor, the engine seed, the run seed and the LLC
// policy. No prefetcher, so the group stays digest-eligible. Budgets are
// quantum multiples so the sampled twin lands on the same boundaries.
func knobbedPInTE() Config {
	mem := dram.Default()
	mem.RowHitLatency = 90
	mem.RowMissLatency = 260
	cfg := Config{
		Mode: PInTE, Workload: "433.milc", PInduce: 0.3,
		WarmupInstrs: 64_000, ROIInstrs: 128_000, SampleEvery: 16_000,
		Seed: 11, EngineSeed: 99, Branch: "gshare",
		CPU:  cpu.Config{Width: 2, MispredictPenalty: 20, MLP: 4},
		DRAM: &mem,
	}
	cfg.Hier.LLC.Policy = "rrip"
	return cfg
}

// TestMachineKnobsAcrossExecutors pins the non-default machine knobs
// across every executor that builds a run's hardware: the fan-out digest
// executor, the fan-out lockstep executor and the phase-sampled executor
// must each reproduce the full run of the same config.
func TestMachineKnobsAcrossExecutors(t *testing.T) {
	pinteCfg := knobbedPInTE()
	iso := pinteCfg
	iso.Mode, iso.PInduce = Isolation, 0
	if !fanDigestEligible(pinteCfg.withDefaults()) {
		t.Fatal("knobbed config must ride the digest executor")
	}

	t.Run("fan-digest", func(t *testing.T) {
		checkFanEquivalence(t, []Config{pinteCfg, iso})
	})
	t.Run("fan-lockstep", func(t *testing.T) {
		tel := pinteCfg
		tel.TelemetryEvery = 16_000
		checkFanEquivalence(t, []Config{pinteCfg, iso, tel})
	})
	t.Run("sampled", func(t *testing.T) {
		checkSampledMatchesRun(t, pinteCfg)
	})
}

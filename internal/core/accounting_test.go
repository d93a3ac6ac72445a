package core

import (
	"hash/fnv"
	"testing"

	"repro/internal/replacement"
)

// runAccounting drives one engine over an 8-set LLC, first with a
// footprint that fits (mostly hits), then with one that does not
// (mostly misses). With traced set it also returns an FNV-64a of every
// (State, Set, Way) event the engine emitted.
func runAccounting(t *testing.T, policy string, ways int, p float64, traced bool) (Stats, uint64) {
	t.Helper()
	c := demoCache(t, 8, ways, policy)
	e := MustNewEngine(Params{PInduce: p, Seed: 31})
	h := fnv.New64a()
	if traced {
		var buf [12]byte
		e.Trace = func(ev Event) {
			for i, v := range [3]int{int(ev.State), ev.Set, ev.Way} {
				buf[4*i] = byte(v)
				buf[4*i+1] = byte(v >> 8)
				buf[4*i+2] = byte(v >> 16)
				buf[4*i+3] = byte(v >> 24)
			}
			h.Write(buf[:])
		}
	}
	c.SetInjector(e)
	drive(c, 20_000, 100)
	drive(c, 20_000, 300)
	return e.Stats, h.Sum64()
}

// TestEngineAccountingPinned pins the engine's Fig 4 accounting — every
// Stats counter, StateVisits included, and the exact per-way Trace event
// stream — for every policy at two trigger rates on a 16-way LLC, plus
// 1-way nMRU, the one geometry where BLOCK-SELECT exhausts the set
// without finding a way. How BLOCK-SELECT finds its way may change; what
// it reports may not. The untraced engine must count the same.
func TestEngineAccountingPinned(t *testing.T) {
	cases := []struct {
		policy string
		ways   int
		p      float64
		stats  Stats
		trace  uint64
	}{
		{"lru", 16, 0.3, Stats{40000, 12058, 97395, 97395, 36861, [StateExit + 1]uint64{0, 40000, 12058, 870890, 97395, 36861, 97395, 40000}}, 0xb0c0866de723638b},
		{"lru", 16, 1, Stats{40000, 40000, 321128, 321128, 39976, [StateExit + 1]uint64{0, 40000, 40000, 2834140, 321128, 39976, 321128, 40000}}, 0x849f0598bf9a3bfd},
		{"plru", 16, 0.3, Stats{40000, 12058, 97395, 97395, 34511, [StateExit + 1]uint64{0, 40000, 12058, 747616, 97395, 34511, 97395, 40000}}, 0xfa81f52417842b05},
		{"plru", 16, 1, Stats{40000, 40000, 321128, 321128, 39974, [StateExit + 1]uint64{0, 40000, 40000, 2613618, 321128, 39974, 321128, 40000}}, 0x3aa1d8a3a61cb168},
		{"nmru", 16, 0.3, Stats{40000, 12058, 97395, 97395, 11537, [StateExit + 1]uint64{0, 40000, 12058, 140492, 97395, 11537, 97395, 40000}}, 0x4f0d66d521fc53d5},
		{"nmru", 16, 1, Stats{40000, 40000, 321128, 321128, 28628, [StateExit + 1]uint64{0, 40000, 40000, 470451, 321128, 28628, 321128, 40000}}, 0xd31588ba4057ff01},
		{"rrip", 16, 0.3, Stats{40000, 12058, 97395, 97395, 15074, [StateExit + 1]uint64{0, 40000, 12058, 740748, 97395, 15074, 97395, 40000}}, 0x7c4517b51ae4864c},
		{"rrip", 16, 1, Stats{40000, 40000, 321128, 321128, 19490, [StateExit + 1]uint64{0, 40000, 40000, 324897, 321128, 19490, 321128, 40000}}, 0xa762f284db3c4c12},
		{"nmru", 1, 1, Stats{40000, 40000, 20009, 5, 0, [StateExit + 1]uint64{0, 40000, 40000, 20009, 5, 0, 5, 40000}}, 0x2ad54f4f87a8667},
	}
	if len(cases) != 2*len(replacement.Names())+1 {
		t.Fatalf("%d cases; want every policy at both trigger rates plus 1-way nMRU", len(cases))
	}
	for _, tc := range cases {
		stats, trace := runAccounting(t, tc.policy, tc.ways, tc.p, true)
		if stats != tc.stats {
			t.Errorf("%s/%d-way/P=%v traced: stats\n got %+v\nwant %+v", tc.policy, tc.ways, tc.p, stats, tc.stats)
		}
		if trace != tc.trace {
			t.Errorf("%s/%d-way/P=%v: trace hash %#x, want %#x", tc.policy, tc.ways, tc.p, trace, tc.trace)
		}
		if stats, _ := runAccounting(t, tc.policy, tc.ways, tc.p, false); stats != tc.stats {
			t.Errorf("%s/%d-way/P=%v untraced: stats\n got %+v\nwant %+v", tc.policy, tc.ways, tc.p, stats, tc.stats)
		}
	}
}

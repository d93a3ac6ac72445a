package core

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/cache"
	"repro/internal/replacement"
)

// BenchmarkEngineOnLLCAccess measures one demand access to a 16-way LLC
// (1024 sets) with a PInTE engine attached: the lookup, the fill on a
// miss, and the engine's Fig 4 flow. The address stream is uniform over
// 1.5x the LLC's capacity, so sets stay full and both hits and misses
// occur. At P_Induce 1 every access runs GEN-EVICT-CNT and up to 16
// BLOCK-SELECT units; at 0.1 the lookup dominates.
func BenchmarkEngineOnLLCAccess(b *testing.B) {
	const sets, ways = 1024, 16
	r := rand.New(rand.NewPCG(1, 2))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = uint64(r.IntN(sets*ways*3/2)) * cache.BlockBytes
	}
	for _, pol := range replacement.Names() {
		b.Run(pol, func(b *testing.B) {
			for _, p := range []float64{1, 0.1} {
				b.Run(fmt.Sprintf("p=%v", p), func(b *testing.B) {
					c := demoCache(b, sets, ways, pol)
					c.SetInjector(MustNewEngine(Params{PInduce: p, Seed: 1}))
					for _, a := range addrs {
						if !c.Lookup(a, 0, false) {
							c.Fill(a, 0, false, false)
						}
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						a := addrs[i&(len(addrs)-1)]
						if !c.Lookup(a, 0, false) {
							c.Fill(a, 0, false, false)
						}
					}
				})
			}
		})
	}
}

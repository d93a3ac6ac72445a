package replacement

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func newPolicy(t *testing.T, name string, sets, ways int) Policy {
	t.Helper()
	p := MustNew(name, 42)
	p.Reset(sets, ways)
	return p
}

func TestNewUnknown(t *testing.T) {
	if _, err := New("fifo", 1); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestNamesConstructible(t *testing.T) {
	for _, n := range Names() {
		p := MustNew(n, 1)
		if p.Name() != n {
			t.Errorf("policy %q reports name %q", n, p.Name())
		}
		p.Reset(4, 8)
	}
}

// TestVictimInRange: for every policy, Victim always returns a legal way.
func TestVictimInRange(t *testing.T) {
	for _, name := range Names() {
		p := newPolicy(t, name, 16, 8)
		rng := rand.New(rand.NewPCG(7, 7))
		for i := 0; i < 10_000; i++ {
			set := rng.IntN(16)
			switch rng.IntN(3) {
			case 0:
				p.OnFill(set, rng.IntN(8))
			case 1:
				p.OnHit(set, rng.IntN(8))
			case 2:
				v := p.Victim(set)
				if v < 0 || v >= 8 {
					t.Fatalf("%s: victim %d out of range", name, v)
				}
			}
		}
	}
}

// refAtStackEnd is the reference stack-end predicate, read straight off
// each policy's state: whether way is a block the policy would victimise
// next. StackEnd must return the lowest way it accepts.
func refAtStackEnd(p Policy, set, way int) bool {
	switch p := p.(type) {
	case *LRU:
		// The oldest way. Touched ways have unique ages, so a strict
		// compare excludes way itself, and ties between never-touched
		// (age 0) ways all pass.
		base := set * p.ways
		a := p.age[base+way]
		for _, x := range p.age[base : base+p.ways] {
			if x < a {
				return false
			}
		}
		return true
	case *PLRU:
		return p.Victim(set) == way
	case *NMRU:
		// Every non-MRU block is a victim candidate.
		return int(p.mru[set]) != way
	case *RRIP:
		// way holds the set's maximum RRPV.
		base := set * p.ways
		v := p.rrpv[base+way]
		for w := 0; w < p.ways; w++ {
			if p.rrpv[base+w] > v {
				return false
			}
		}
		return true
	}
	panic(fmt.Sprintf("refAtStackEnd: no reference for %T", p))
}

// refStackEnd is the way-by-way walk StackEnd replaces: the first way
// refAtStackEnd accepts, or -1.
func refStackEnd(p Policy, set, ways int) int {
	for w := 0; w < ways; w++ {
		if refAtStackEnd(p, set, w) {
			return w
		}
	}
	return -1
}

// TestStackEndMatchesReference drives random OnFill/OnHit/Promote/
// OnInvalidate/Victim sequences through every policy at every
// associativity it supports and checks, after each step, that StackEnd
// agrees with the reference walk and leaves the policy's state alone.
func TestStackEndMatchesReference(t *testing.T) {
	const sets = 4
	for _, name := range Names() {
		for _, ways := range []int{1, 2, 4, 8, 16} {
			if name == "plru" && ways == 1 {
				continue // pLRU needs a tree: 2..32 ways
			}
			p := newPolicy(t, name, sets, ways)
			rng := rand.New(rand.NewPCG(uint64(ways), 17))
			for i := 0; i < 4_000; i++ {
				set, way := rng.IntN(sets), rng.IntN(ways)
				switch rng.IntN(5) {
				case 0:
					p.OnFill(set, way)
				case 1:
					p.OnHit(set, way)
				case 2:
					p.Promote(set, way)
				case 3:
					p.OnInvalidate(set, way)
				case 4:
					p.Victim(set)
				}
				before := fmt.Sprintf("%+v", p)
				got := p.StackEnd(set)
				if want := refStackEnd(p, set, ways); got != want {
					t.Fatalf("%s/%d ways, op %d: StackEnd(%d) = %d, reference walk %d",
						name, ways, i, set, got, want)
				}
				if after := fmt.Sprintf("%+v", p); after != before {
					t.Fatalf("%s/%d ways, op %d: StackEnd changed policy state", name, ways, i)
				}
			}
		}
	}
}

// TestNMRUStackEndEdges: nMRU's stack end with no MRU block (fresh or
// invalidated) is way 0; with way 0 as MRU it is way 1, and a 1-way set
// whose only block is MRU has none.
func TestNMRUStackEndEdges(t *testing.T) {
	p := newPolicy(t, "nmru", 1, 1)
	if got := p.StackEnd(0); got != 0 || refStackEnd(p, 0, 1) != 0 {
		t.Fatalf("1-way nMRU with mru -1: StackEnd = %d, want 0", got)
	}
	p.OnFill(0, 0)
	if got := p.StackEnd(0); got != -1 || refStackEnd(p, 0, 1) != -1 {
		t.Fatalf("1-way nMRU with mru 0: StackEnd = %d, want -1", got)
	}
	p = newPolicy(t, "nmru", 1, 4)
	if got := p.StackEnd(0); got != 0 {
		t.Fatalf("4-way nMRU with mru -1: StackEnd = %d, want 0", got)
	}
	p.OnHit(0, 0)
	if got := p.StackEnd(0); got != 1 {
		t.Fatalf("4-way nMRU with mru 0: StackEnd = %d, want 1", got)
	}
	p.OnHit(0, 3)
	if got := p.StackEnd(0); got != 0 {
		t.Fatalf("4-way nMRU with mru 3: StackEnd = %d, want 0", got)
	}
}

// TestStackEndExists: after arbitrary activity, at least one way is at
// the stack end (PInTE's BLOCK-SELECT must be able to find a target),
// and the victim is always at the stack end — for the policies with a
// deterministic victim, it is exactly StackEnd's way.
func TestStackEndExists(t *testing.T) {
	for _, name := range Names() {
		p := newPolicy(t, name, 8, 8)
		rng := rand.New(rand.NewPCG(9, 9))
		for i := 0; i < 5_000; i++ {
			set := rng.IntN(8)
			if rng.IntN(2) == 0 {
				p.OnFill(set, rng.IntN(8))
			} else {
				p.OnHit(set, rng.IntN(8))
			}
			if end := p.StackEnd(set); end < 0 || end >= 8 || !refAtStackEnd(p, set, end) {
				t.Fatalf("%s: no way at stack end after op %d (StackEnd %d)", name, i, end)
			}
			if name == "nmru" {
				continue // nMRU victims are random among non-MRU
			}
			v := p.Victim(set)
			if !refAtStackEnd(p, set, v) {
				t.Fatalf("%s: victim %d not at stack end", name, v)
			}
			if end := p.StackEnd(set); end != v {
				t.Fatalf("%s: victim %d but StackEnd %d", name, v, end)
			}
		}
	}
}

// TestPromoteRemovesFromStackEnd: promoting a block moves it away from
// the eviction end (for policies with more than a two-level order).
func TestPromoteRemovesFromStackEnd(t *testing.T) {
	for _, name := range []string{"lru", "plru", "rrip"} {
		p := newPolicy(t, name, 1, 8)
		for w := 0; w < 8; w++ {
			p.OnFill(0, w)
		}
		v := p.Victim(0)
		p.Promote(0, v)
		if refAtStackEnd(p, 0, v) {
			t.Errorf("%s: way %d still at stack end after Promote", name, v)
		}
		if end := p.StackEnd(0); end == v {
			t.Errorf("%s: StackEnd still %d after Promote", name, v)
		}
	}
}

func TestLRUExactOrder(t *testing.T) {
	p := newPolicy(t, "lru", 1, 4)
	for w := 0; w < 4; w++ {
		p.OnFill(0, w)
	}
	// Touch order: 0, 2 → LRU order now 1, 3, 0, 2.
	p.OnHit(0, 0)
	p.OnHit(0, 2)
	if v := p.Victim(0); v != 1 {
		t.Fatalf("victim = %d, want 1", v)
	}
	if pos := p.HitPosition(0, 2); pos != 0 {
		t.Errorf("most recent way position = %d, want 0", pos)
	}
	if pos := p.HitPosition(0, 1); pos != 3 {
		t.Errorf("oldest way position = %d, want 3", pos)
	}
}

// TestLRUHitPositionPermutation: positions form a permutation of 0..ways-1.
func TestLRUHitPositionPermutation(t *testing.T) {
	f := func(ops []uint8) bool {
		p := MustNew("lru", 1)
		const ways = 8
		p.Reset(1, ways)
		for w := 0; w < ways; w++ {
			p.OnFill(0, w)
		}
		for _, op := range ops {
			p.OnHit(0, int(op)%ways)
		}
		seen := map[int]bool{}
		for w := 0; w < ways; w++ {
			pos := p.HitPosition(0, w)
			if pos < 0 || pos >= ways || seen[pos] {
				return false
			}
			seen[pos] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPLRUVictimAvoidsRecentlyTouched(t *testing.T) {
	p := newPolicy(t, "plru", 1, 8)
	for w := 0; w < 8; w++ {
		p.OnFill(0, w)
	}
	for i := 0; i < 100; i++ {
		w := i % 8
		p.OnHit(0, w)
		if v := p.Victim(0); v == w {
			t.Fatalf("pLRU victimised the just-touched way %d", w)
		}
	}
}

func TestPLRURequiresPowerOfTwoWays(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pLRU accepted 6 ways")
		}
	}()
	MustNew("plru", 1).Reset(4, 6)
}

func TestPLRUHitPositionBounds(t *testing.T) {
	p := newPolicy(t, "plru", 2, 16)
	rng := rand.New(rand.NewPCG(3, 3))
	for i := 0; i < 5000; i++ {
		set := rng.IntN(2)
		w := rng.IntN(16)
		p.OnHit(set, w)
		if pos := p.HitPosition(set, w); pos != 0 {
			t.Fatalf("just-touched way at position %d, want 0", pos)
		}
		v := p.Victim(set)
		if pos := p.HitPosition(set, v); pos != 15 {
			t.Fatalf("victim way at position %d, want 15", pos)
		}
	}
}

func TestNMRUNeverEvictsMRU(t *testing.T) {
	p := newPolicy(t, "nmru", 1, 8)
	rng := rand.New(rand.NewPCG(11, 11))
	for i := 0; i < 10_000; i++ {
		w := rng.IntN(8)
		p.OnHit(0, w)
		if v := p.Victim(0); v == w {
			t.Fatalf("nMRU victimised the MRU way %d", w)
		}
		if refAtStackEnd(p, 0, w) || p.StackEnd(0) == w {
			t.Fatal("MRU way reported at stack end")
		}
	}
}

func TestNMRUVictimsSpread(t *testing.T) {
	p := newPolicy(t, "nmru", 1, 8)
	p.OnHit(0, 0)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		seen[p.Victim(0)] = true
	}
	if len(seen) < 7 {
		t.Errorf("nMRU victims covered only %d of 7 candidate ways", len(seen))
	}
}

func TestNMRUInvalidateClearsProtection(t *testing.T) {
	p := newPolicy(t, "nmru", 1, 4)
	p.OnHit(0, 2)
	p.OnInvalidate(0, 2)
	if !refAtStackEnd(p, 0, 2) {
		t.Fatal("invalidated MRU still protected")
	}
	if end := p.StackEnd(0); end != 0 {
		t.Fatalf("StackEnd = %d with no MRU block, want 0", end)
	}
}

func TestRRIPInsertionAndPromotion(t *testing.T) {
	p := newPolicy(t, "rrip", 1, 4)
	for w := 0; w < 4; w++ {
		p.OnFill(0, w)
	}
	// All at RRPV 2 — every way is a stack-end candidate.
	for w := 0; w < 4; w++ {
		if !refAtStackEnd(p, 0, w) {
			t.Fatalf("way %d should be at stack end after fill", w)
		}
	}
	if end := p.StackEnd(0); end != 0 {
		t.Fatalf("StackEnd = %d with every way at RRPV 2, want 0", end)
	}
	p.OnHit(0, 1) // way 1 → RRPV 0
	if refAtStackEnd(p, 0, 1) {
		t.Fatal("hit way still at stack end")
	}
	v := p.Victim(0)
	if v == 1 {
		t.Fatal("RRIP victimised the hit way")
	}
	// Victim search ages the set until some way reaches RRPV 3.
	if pos := p.HitPosition(0, v); pos != 3 {
		t.Errorf("victim hit position %d, want 3 (scaled RRPV max)", pos)
	}
	// RRPVs are now 3, 1, 3, 3.
	if end := p.StackEnd(0); end != v {
		t.Fatalf("StackEnd = %d after ageing, want the victim %d", end, v)
	}
	p.OnHit(0, v) // the first stack-end way moves past it
	if end := p.StackEnd(0); end != 2 {
		t.Fatalf("StackEnd = %d, want 2", end)
	}
}

func TestRRIPVictimTerminates(t *testing.T) {
	p := newPolicy(t, "rrip", 1, 16)
	rng := rand.New(rand.NewPCG(13, 13))
	for i := 0; i < 20_000; i++ {
		switch rng.IntN(3) {
		case 0:
			p.OnFill(0, rng.IntN(16))
		case 1:
			p.OnHit(0, rng.IntN(16))
		case 2:
			if v := p.Victim(0); v < 0 || v >= 16 {
				t.Fatalf("victim %d out of range", v)
			}
		}
	}
}

func TestPLRUInvalidatePointsAtFreedWay(t *testing.T) {
	p := newPolicy(t, "plru", 1, 8)
	for w := 0; w < 8; w++ {
		p.OnFill(0, w)
	}
	for w := 0; w < 8; w++ {
		p.OnInvalidate(0, w)
		if v := p.Victim(0); v != w {
			t.Fatalf("victim after invalidating way %d is %d", w, v)
		}
	}
}

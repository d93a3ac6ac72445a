package store

import (
	"context"
	"sync"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// flight is one in-progress computation of a config key. Waiters block
// on done; the leader fills res/ok before closing it. ok stays false
// when the leader failed or panicked, waking waiters into their own
// attempts instead of handing them a result that does not exist.
type flight struct {
	done chan struct{}
	res  *sim.Result
	ok   bool
}

// Via reports how Do satisfied a request.
type Via int

const (
	// ViaCompute: this caller was the leader and ran compute itself.
	ViaCompute Via = iota
	// ViaFlight: another caller's in-flight computation was shared.
	ViaFlight
	// ViaHit: the store already held the result.
	ViaHit
)

// testWaitHook, when non-nil, runs just before a duplicate caller
// parks on an existing flight; tests use it to sequence waiters
// deterministically against their leader.
var testWaitHook func()

// Do returns the result for key, computing it at most once across all
// concurrent callers of this store: the first caller for a key becomes
// the leader and runs compute; every concurrent duplicate — another
// campaign, another pinted tenant — blocks on the leader instead of
// burning a worker on the same simulation. A leader that fails or
// panics is chaos-safe: its waiters wake into their own attempts (one
// of them becomes the next leader) rather than inheriting the failure.
//
// Do does not write the store; the leader's persist (nil for none)
// does, so durability ordering stays the caller's (the campaign journal
// first, then Put). Waiters are released with the result as soon as
// compute returns and never wait on persist, but the finished flight
// stays resolvable until persist returns: a duplicate arriving while the
// result is still on its way into the store shares it instead of
// recomputing. On a nil store Do degrades to compute then persist.
func (s *Store) Do(ctx context.Context, key string, compute func() (*sim.Result, error), persist func(*sim.Result)) (*sim.Result, Via, error) {
	if s == nil {
		res, err := compute()
		if err == nil && persist != nil {
			persist(res)
		}
		return res, ViaCompute, err
	}
	for {
		// The store may have gained the entry since the caller's initial
		// lookup (a leader finished and Put); misses here are not counted
		// — the caller already counted its original miss.
		if res, ok := s.get(key, false); ok {
			return res, ViaHit, nil
		}
		s.fmu.Lock()
		if f, ok := s.flights[key]; ok {
			s.fmu.Unlock()
			if testWaitHook != nil {
				testWaitHook()
			}
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, ViaFlight, ctx.Err()
			}
			if f.ok {
				telemetry.StoreC.SingleFlightShared.Add(1)
				return f.res, ViaFlight, nil
			}
			// Leader failed or panicked: retry, possibly becoming the new
			// leader ourselves.
			telemetry.StoreC.SingleFlightRetries.Add(1)
			continue
		}
		f := &flight{done: make(chan struct{})}
		s.flights[key] = f
		s.fmu.Unlock()
		res, err := s.lead(key, f, compute, persist)
		return res, ViaCompute, err
	}
}

// lead runs compute and persist as the leader of flight f. The deferred
// unwinds run even when compute or persist panics, so waiters are always
// released and the flight always retired; the panic itself propagates
// to the caller's recovery (the runner's safeCall).
func (s *Store) lead(key string, f *flight, compute func() (*sim.Result, error), persist func(*sim.Result)) (*sim.Result, error) {
	retire := func() {
		s.fmu.Lock()
		delete(s.flights, key)
		s.fmu.Unlock()
	}
	defer func() {
		if !f.ok {
			retire()
			close(f.done)
		}
	}()
	res, err := compute()
	if err != nil {
		return nil, err
	}
	f.res, f.ok = res, true
	close(f.done)
	defer retire()
	if persist != nil {
		persist(res)
	}
	return res, nil
}

// BeginFlights claims leadership of every key not already in flight, in
// one atomic sweep — the fan-out path's single-flight: a group about to
// execute claims its points so concurrent campaigns running the same
// configs wait instead of recomputing, and points another campaign
// already claimed are reported unclaimed so the caller can defer them
// to a waiting path. The returned finish must be called exactly once
// (deferred, so a panicking group still releases its waiters): claimed
// keys present in results are published to their waiters, the rest wake
// into their own attempts. On a nil store nothing is claimed.
func (s *Store) BeginFlights(keys []string) (claimed map[string]bool, finish func(results map[string]*sim.Result)) {
	if s == nil {
		return nil, func(map[string]*sim.Result) {}
	}
	claimed = make(map[string]bool, len(keys))
	var ck []string
	var fl []*flight
	s.fmu.Lock()
	for _, k := range keys {
		if claimed[k] {
			continue
		}
		if _, ok := s.flights[k]; ok {
			continue
		}
		f := &flight{done: make(chan struct{})}
		s.flights[k] = f
		claimed[k] = true
		ck = append(ck, k)
		fl = append(fl, f)
	}
	s.fmu.Unlock()
	var once sync.Once
	finish = func(results map[string]*sim.Result) {
		once.Do(func() {
			s.fmu.Lock()
			for _, k := range ck {
				delete(s.flights, k)
			}
			s.fmu.Unlock()
			for j, f := range fl {
				if res, ok := results[ck[j]]; ok && res != nil {
					f.res, f.ok = res, true
				}
				close(f.done)
			}
		})
	}
	return claimed, finish
}

// InFlight reports whether key currently has a leader computing it.
// The campaign service uses it at admission time to label collapsed
// duplicates; the answer is advisory (it can change immediately).
func (s *Store) InFlight(key string) bool {
	if s == nil {
		return false
	}
	s.fmu.Lock()
	defer s.fmu.Unlock()
	_, ok := s.flights[key]
	return ok
}

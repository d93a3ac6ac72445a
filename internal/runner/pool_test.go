package runner

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// drainOrder holds a 1-worker pool's only worker on a gate task while
// submit queues the real tasks, then releases the gate and waits for
// everything to finish — so dispatch order is decided by the scheduler,
// not by submission racing the worker.
func drainOrder(t *testing.T, p *Pool, submit func(wg *sync.WaitGroup)) {
	t.Helper()
	gate := make(chan struct{})
	started := make(chan struct{})
	gq := p.NewQueue("gate", 1)
	defer gq.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	gq.Submit(func(shed bool) {
		defer wg.Done()
		if !shed {
			close(started)
			<-gate
		}
	})
	<-started
	submit(&wg)
	close(gate)
	wg.Wait()
}

// TestPoolFairInterleave checks stride scheduling alternates two
// equal-weight queues run-for-run instead of draining the
// first-submitted queue to completion.
func TestPoolFairInterleave(t *testing.T) {
	p := NewPool(1)
	defer p.Close()

	var mu sync.Mutex
	var order []string
	qa := p.NewQueue("tenant-a", 1)
	qb := p.NewQueue("tenant-b", 1)
	defer qa.Close()
	defer qb.Close()

	drainOrder(t, p, func(wg *sync.WaitGroup) {
		for i := 0; i < 4; i++ {
			wg.Add(2)
			qa.Submit(func(shed bool) {
				defer wg.Done()
				mu.Lock()
				order = append(order, "a")
				mu.Unlock()
			})
			qb.Submit(func(shed bool) {
				defer wg.Done()
				mu.Lock()
				order = append(order, "b")
				mu.Unlock()
			})
		}
	})

	if len(order) != 8 {
		t.Fatalf("executed %d tasks, want 8", len(order))
	}
	// Equal weights → strict alternation (ties break by queue age).
	for i, l := range order {
		want := "a"
		if i%2 == 1 {
			want = "b"
		}
		if l != want {
			t.Fatalf("dispatch order %v: position %d is %q, want %q", order, i, l, want)
		}
	}
}

// TestPoolWeightedShares checks a weight-3 queue receives about three
// dispatches for each dispatch of a weight-1 competitor.
func TestPoolWeightedShares(t *testing.T) {
	p := NewPool(1)
	defer p.Close()

	var mu sync.Mutex
	var order []string
	qa := p.NewQueue("tenant-a", 3)
	qb := p.NewQueue("tenant-b", 1)
	defer qa.Close()
	defer qb.Close()

	drainOrder(t, p, func(wg *sync.WaitGroup) {
		for i := 0; i < 9; i++ {
			wg.Add(1)
			qa.Submit(func(shed bool) {
				defer wg.Done()
				mu.Lock()
				order = append(order, "a")
				mu.Unlock()
			})
		}
		for i := 0; i < 3; i++ {
			wg.Add(1)
			qb.Submit(func(shed bool) {
				defer wg.Done()
				mu.Lock()
				order = append(order, "b")
				mu.Unlock()
			})
		}
	})

	a := 0
	for _, l := range order[:8] {
		if l == "a" {
			a++
		}
	}
	if a < 5 || a > 7 {
		t.Fatalf("weight-3 queue got %d of the first 8 dispatches (%v), want ~6", a, order)
	}
}

// TestPoolTenantCap checks a tenant's concurrent runs never exceed its
// cap even with free workers available, and that other tenants use the
// spare capacity.
func TestPoolTenantCap(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	p.SetTenantCap("capped", 1)

	var cur, max, other atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	qa := p.NewQueue("capped", 1)
	qb := p.NewQueue("free", 1)
	defer qa.Close()
	defer qb.Close()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		qa.Submit(func(shed bool) {
			defer wg.Done()
			if shed {
				return
			}
			if c := cur.Add(1); c > max.Load() {
				max.Store(c)
			}
			<-release
			cur.Add(-1)
		})
	}
	wg.Add(1)
	qb.Submit(func(shed bool) {
		defer wg.Done()
		if !shed {
			other.Add(1)
		}
	})

	// The uncapped tenant's task must complete while the capped tenant
	// holds exactly one worker.
	deadline := time.After(5 * time.Second)
	for other.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("uncapped tenant starved behind a capped tenant")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(release)
	wg.Wait()
	if max.Load() != 1 {
		t.Fatalf("capped tenant reached %d concurrent runs, cap is 1", max.Load())
	}
}

// TestPoolDrain checks the drain contract: the in-flight task finishes,
// every queued task is shed exactly once with shed=true, Drain returns
// only after the pool is idle, and later Submits shed immediately.
func TestPoolDrain(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	q := p.NewQueue("t", 1)
	defer q.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	var inflightDone, shedCount atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	q.Submit(func(shed bool) {
		defer wg.Done()
		close(started)
		<-release
		inflightDone.Add(1)
	})
	<-started
	for i := 0; i < 3; i++ {
		wg.Add(1)
		q.Submit(func(shed bool) {
			defer wg.Done()
			if shed {
				shedCount.Add(1)
			}
		})
	}

	drained := make(chan error, 1)
	go func() { drained <- p.Drain(context.Background()) }()
	// Shedding is synchronous inside Drain, before the idle wait.
	deadline := time.After(5 * time.Second)
	for shedCount.Load() != 3 {
		select {
		case <-deadline:
			t.Fatalf("queued tasks shed %d times, want 3", shedCount.Load())
		default:
			time.Sleep(time.Millisecond)
		}
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v while a task was still in flight", err)
	default:
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	if inflightDone.Load() != 1 {
		t.Fatal("in-flight task did not finish during drain")
	}

	shedNow := false
	q.Submit(func(shed bool) { shedNow = shed })
	if !shedNow {
		t.Fatal("Submit after Drain was not shed synchronously")
	}
}

// TestPoolDrainDeadline checks a Drain bounded by an expired context
// returns the context error instead of waiting for a wedged task.
func TestPoolDrainDeadline(t *testing.T) {
	p := NewPool(1)
	defer func() {
		go p.Close() // the wedged task never returns; don't block cleanup
	}()
	q := p.NewQueue("t", 1)
	started := make(chan struct{})
	q.Submit(func(shed bool) {
		close(started)
		select {} // wedged forever
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := p.Drain(ctx); err == nil {
		t.Fatal("Drain returned nil despite a wedged in-flight task")
	}
}

// TestPoolQueueCloseSheds checks closing a queue sheds its queued tasks.
func TestPoolQueueCloseSheds(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	gate := make(chan struct{})
	gq := p.NewQueue("gate", 1)
	var gw sync.WaitGroup
	gw.Add(1)
	gq.Submit(func(shed bool) { defer gw.Done(); <-gate })

	q := p.NewQueue("t", 1)
	var shed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		q.Submit(func(s bool) {
			defer wg.Done()
			if s {
				shed.Add(1)
			}
		})
	}
	q.Close()
	wg.Wait()
	if shed.Load() != 2 {
		t.Fatalf("queue close shed %d tasks, want 2", shed.Load())
	}
	close(gate)
	gw.Wait()
	gq.Close()
}

// TestPoolPrivateBoundsWorkers checks a campaign without a shared pool
// runs on a private pool of Options.Workers: no more than Workers runs
// are ever in flight at once, and every config is accounted exactly
// once. Only the upper bound is asserted — how close a run gets to it is
// up to the scheduler.
func TestPoolPrivateBoundsWorkers(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var inFlight, peak atomic.Int64
		o := New(Options{Workers: workers})
		o.run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
			n := inFlight.Add(1)
			defer inFlight.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(time.Millisecond)
			return &sim.Result{Config: cfg, IPC: 1}, nil
		}
		cfgs := make([]sim.Config, 9)
		for i := range cfgs {
			cfgs[i] = tinyCfg(fmt.Sprintf("w%d", i), 0.1)
		}
		out, err := o.RunAll(context.Background(), cfgs)
		if err != nil {
			t.Fatal(err)
		}
		if got := peak.Load(); got > int64(workers) {
			t.Errorf("Workers=%d: %d runs in flight at once", workers, got)
		}
		failed := make(map[int]int)
		for _, f := range out.Failures {
			failed[f.Index]++
		}
		for i := range cfgs {
			if n := failed[i]; (out.Results[i] != nil) == (n > 0) || n > 1 {
				t.Errorf("Workers=%d: config %d has result=%v and %d failures, want exactly one of them",
					workers, i, out.Results[i] != nil, n)
			}
		}
		if out.Ran != len(cfgs) {
			t.Errorf("Workers=%d: Ran = %d, want %d", workers, out.Ran, len(cfgs))
		}
	}
}

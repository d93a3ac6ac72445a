package main

import (
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// supplyClock accumulates host time spent inside the record-supply calls
// of primary instruction streams: NextBatch, NextSlice, Next and Skip.
type supplyClock struct {
	ns      atomic.Int64
	records atomic.Int64
	skipped atomic.Int64
}

func (c *supplyClock) since(t0 time.Time) { c.ns.Add(int64(time.Since(t0))) }

// timedProvider wraps a trace.SourceProvider so that every source it
// hands out reports its supply time to clk.
type timedProvider struct {
	inner trace.SourceProvider
	clk   *supplyClock
}

// Source implements trace.SourceProvider.
func (p timedProvider) Source(spec trace.Spec, seed, base uint64) (trace.Source, error) {
	src, err := p.inner.Source(spec, seed, base)
	if err != nil {
		return nil, err
	}
	return wrapSource(src, p.clk), nil
}

// wrapSource times src and forwards each optional interface src
// implements. The simulator probes trace.SliceReader and trace.Skipper
// with type assertions, so a wrapper that hid either one would make the
// core fall back to copying reads or to read-and-discard skipping: it
// would measure a different program.
func wrapSource(src trace.Source, clk *supplyClock) trace.Source {
	base := &timedSource{src: src, clk: clk}
	sr, slice := src.(trace.SliceReader)
	sk, skip := src.(trace.Skipper)
	switch {
	case slice && skip:
		return struct {
			*timedSource
			timedSlice
			timedSkip
		}{base, timedSlice{sr, clk}, timedSkip{sk, clk}}
	case slice:
		return struct {
			*timedSource
			timedSlice
		}{base, timedSlice{sr, clk}}
	case skip:
		return struct {
			*timedSource
			timedSkip
		}{base, timedSkip{sk, clk}}
	}
	return base
}

type timedSource struct {
	src trace.Source
	clk *supplyClock
}

func (t *timedSource) Next(rec *trace.Record) error {
	t0 := time.Now()
	err := t.src.Next(rec)
	t.clk.since(t0)
	if err == nil {
		t.clk.records.Add(1)
	}
	return err
}

func (t *timedSource) NextBatch(recs []trace.Record) (int, error) {
	t0 := time.Now()
	n, err := t.src.NextBatch(recs)
	t.clk.since(t0)
	t.clk.records.Add(int64(n))
	return n, err
}

func (t *timedSource) Rewind() { t.src.Rewind() }

type timedSlice struct {
	sr  trace.SliceReader
	clk *supplyClock
}

func (t timedSlice) NextSlice() ([]trace.Record, error) {
	t0 := time.Now()
	view, err := t.sr.NextSlice()
	t.clk.since(t0)
	t.clk.records.Add(int64(len(view)))
	return view, err
}

type timedSkip struct {
	sk  trace.Skipper
	clk *supplyClock
}

func (t timedSkip) Skip(n uint64) (uint64, error) {
	t0 := time.Now()
	got, err := t.sk.Skip(n)
	t.clk.since(t0)
	t.clk.skipped.Add(int64(got))
	return got, err
}

package main

import (
	"context"
	"testing"

	"repro/internal/replay"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/trace"
)

// The wrapper must expose exactly the optional interfaces of the source
// it wraps: hiding Skip sends sampled runs to read-and-discard, and
// adding one the source lacks would be a lie the core acts on.
func TestWrapSourceForwardsOptionalInterfaces(t *testing.T) {
	spec, err := trace.SpecFor("403.gcc")
	if err != nil {
		t.Fatal(err)
	}
	clk := &supplyClock{}

	gen, err := trace.Generate{}.Source(spec, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, genSkip := gen.(trace.Skipper)
	_, genSlice := gen.(trace.SliceReader)
	w := wrapSource(gen, clk)
	if _, ok := w.(trace.Skipper); ok != genSkip {
		t.Errorf("generator: wrapper Skipper = %v, source %v", ok, genSkip)
	}
	if _, ok := w.(trace.SliceReader); ok != genSlice {
		t.Errorf("generator: wrapper SliceReader = %v, source %v", ok, genSlice)
	}

	rep, err := replay.NewCache(0).Source(spec, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.(trace.Skipper); !ok {
		t.Fatal("replayer no longer implements trace.Skipper; the test needs another source")
	}
	if _, ok := wrapSource(rep, clk).(trace.Skipper); !ok {
		t.Error("replayer: wrapper hides trace.Skipper")
	}

	fan := replay.NewFan(rep, 1, 0, nil)
	if _, ok := wrapSource(fan.Reader(0), clk).(trace.SliceReader); !ok {
		t.Error("fan reader: wrapper hides trace.SliceReader")
	}
	fan.Abort(context.Canceled)
}

// A sampled campaign gives the same bytes with and without the wrapper,
// and its skips reach the replayer's Skip.
func TestWrappedSampledCampaignIsByteIdentical(t *testing.T) {
	spec := server.SweepSpec{
		Workloads: []string{"403.gcc"}, Points: []float64{0.1, 0.5},
		WarmupInstrs: 20_000, ROIInstrs: 400_000, Seed: 5,
	}
	cfgs := spec.Configs()
	run := func(clk *supplyClock) []string {
		var streams trace.SourceProvider = replay.NewCache(0)
		if clk != nil {
			streams = timedProvider{inner: streams, clk: clk}
		}
		out, err := runner.New(runner.Options{Workers: 2, Streams: streams, Sample: true}).RunAll(context.Background(), cfgs)
		if err != nil {
			t.Fatal(err)
		}
		d, err := deliverOutcome(cfgs, out)
		if err != nil {
			t.Fatal(err)
		}
		if d.errs > 0 {
			t.Fatalf("%d points failed", d.errs)
		}
		var digests []string
		for _, o := range d.outputs {
			digests = append(digests, o.digest)
		}
		return digests
	}
	plain := run(nil)
	clk := &supplyClock{}
	wrapped := run(clk)
	for i := range plain {
		if plain[i] != wrapped[i] {
			t.Errorf("config %d: digest %s under the wrapper, %s without", i, wrapped[i], plain[i])
		}
	}
	if clk.skipped.Load() == 0 {
		t.Error("no record was skipped through the wrapper: Skip is not forwarded")
	}
	if clk.records.Load() == 0 || clk.ns.Load() == 0 {
		t.Error("the wrapper timed no supply")
	}
}

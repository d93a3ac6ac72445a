// Command perfbench is the repository benchmark. It runs one of four
// campaign workloads in-process through the same calls the command-line
// tools make, checks every result against a reference, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) with the
// host they were measured on. The last line of its output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload sweep-fanout --seed 1 --seconds 25 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and what each
// layer metric is expected to move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/expt"
	"repro/internal/replay"
	"repro/internal/sim"
)

// env is what every workload instance is built from.
type env struct {
	seed    uint64 // the benchmark seed, as given on the command line
	simSeed uint64 // the seed handed to the program, derived from seed
	workers int
}

// output is one delivered result: its config key and result digest.
type output struct{ key, digest string }

// delivery is what one campaign, cold or warm, handed back.
type delivery struct {
	expected int // points attempted
	errs     int // points that errored, were refused or never arrived
	outputs  []output
	results  []*sim.Result
	table2   string // rendered Table II (table2-report)
}

// coldRun is one cold campaign: every run starts from empty directories
// and a fresh replay cache.
type coldRun struct {
	campaign time.Duration // first submission to last correct result
	first    time.Duration // submission to first completed result
	d        delivery
	layer    map[string]float64 // per-layer counts the campaign knows itself
	cache    *replay.Cache      // the campaign's replay cache, if any
}

// firstProber is a campaign whose first result comes early enough to be
// sampled again, by cold starts cut short at their first result.
type firstProber interface {
	probeFirst(ctx context.Context) (time.Duration, error)
}

// campaign is one workload instance. Its constructor is timed as set-up.
type campaign interface {
	cold(ctx context.Context) (*coldRun, error)
	// warm resubmits the finished campaign; the program's caches answer
	// every point.
	warm(ctx context.Context) (time.Duration, delivery, error)
	close()
}

type workload struct {
	name string
	open func(e *env, dir string, clk *supplyClock) (campaign, error)
	// configs are the full-fidelity configs whose plain-path results are
	// the reference.
	configs func(e *env) []sim.Config
	sampled bool
	// noProvider marks a workload whose program builds no stream
	// provider (pinted), so there is nothing for the timing wrapper to
	// wrap.
	noProvider bool
}

var workloads = []workload{
	{
		name: "sweep-fanout",
		open: func(e *env, dir string, clk *supplyClock) (campaign, error) {
			return openSweep(e, dir, clk, fanoutSpec(e.simSeed))
		},
		configs: func(e *env) []sim.Config { return fanoutSpec(e.simSeed).Configs() },
	},
	{
		name:    "table2-report",
		open:    openTable2,
		configs: func(e *env) []sim.Config { return table2Configs(expt.NewRunner(table2Scale(e))) },
	},
	{
		name:       "service-overlap",
		open:       openService,
		configs:    func(e *env) []sim.Config { return serviceConfigs(e.simSeed) },
		noProvider: true,
	},
	{
		name: "sweep-sampled",
		open: func(e *env, dir string, clk *supplyClock) (campaign, error) {
			return openSweep(e, dir, clk, sampledSpec(e.simSeed))
		},
		configs: func(e *env) []sim.Config { return sampledSpec(e.simSeed).Configs() },
		sampled: true,
	},
}

// Measurement shape. A run repeats cycles for its seconds, at least
// minCycles of them, so the warm tail percentile warmTailPct always has
// at least twenty samples beyond it: a tail read from ten samples moved
// by a quarter between runs on a quiet host. Warm resubmissions go on for
// at least warmMinPerCycle per cycle: sub-millisecond ones drift with
// the host over tens of milliseconds, so their median needs seconds of
// samples per run.
const (
	minCycles       = 4
	warmPerCycle    = 50
	warmMinPerCycle = time.Second
	setupsPerCycle  = 10
	probesPerCycle  = 8 // first-result probes per cycle, for a firstProber
	warmTailPct     = 90
)

// simSeed derives the program's seed from the benchmark seed (splitmix64),
// so benchmark seed 0 is as good as any other.
func simSeed(seed uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: sweep-fanout, table2-report, service-overlap or sweep-sampled")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 25, "how long one run measures")
		traced  = flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
		record  = flag.String("record-refs", "", "record the plain-path reference for -workload and -seed into this directory, then exit")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Scratch directories live inside the working directory (the
	// checkout), under the ignored .bench_build.
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work := filepath.Join(cwd, ".bench_build", "work", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(work)

	e := &env{seed: *seed, simSeed: simSeed(*seed), workers: runtime.NumCPU()}
	fmt.Println("host:", hostRecord(e))
	if *record != "" {
		if err := recordRef(ctx, w, e, work, *record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var res *result
	if *traced == 1 {
		res, err = traceRun(ctx, w, e, work)
	} else {
		res, err = measure(ctx, w, e, work, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.print()
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes    []string // extra report lines, printed before the metrics
	problems []string // reasons the run is not correct
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) print() {
	for _, n := range r.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("metric %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, p := range r.problems {
		fmt.Println("MISMATCH:", p)
	}
	r.Correct = len(r.problems) == 0
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	fmt.Println(string(b))
}

// checker compares deliveries against the reference. Outputs are
// collected while measuring and compared afterwards, because a seed with
// no committed reference has its reference computed after the timed part.
// Only digests are kept, counted per (key, digest), so a run's memory
// does not grow with the number of campaigns it checks.
type checker struct {
	w         *workload
	attempted int
	failed    int
	seen      map[output]int
	tables    map[string]int // rendered Table II → count
}

func (c *checker) add(d delivery) {
	if c.seen == nil {
		c.seen, c.tables = make(map[output]int), make(map[string]int)
	}
	c.attempted += d.expected
	c.failed += d.errs
	for _, o := range d.outputs {
		c.seen[o]++
	}
	if d.table2 != "" {
		c.tables[d.table2]++
	}
}

// loadRef returns the committed reference for the seed, or computes one
// on the plain path: plain full-fidelity runs, or for sweep-sampled the
// plain sampled path. The rendered Table II of an uncommitted seed is
// taken from the run's first cold campaign, which every later one must
// match; its results are still checked config by config.
func loadRef(ctx context.Context, w *workload, e *env, first delivery) (*reference, bool, error) {
	ref, err := committedRef(w.name, e.seed)
	if err != nil || ref != nil {
		return ref, true, err
	}
	ref = &reference{Workload: w.name, Seed: e.seed, Table2: first.table2}
	if w.sampled {
		ref.Sampled, err = plainSampledRef(ctx, w.configs(e), e.workers)
	} else {
		ref.Results, _, err = plainRef(ctx, w.configs(e), e.workers)
	}
	if err != nil {
		return nil, false, err
	}
	return ref, false, nil
}

// check compares every delivery with ref and records each mismatch as a
// failed point.
func (c *checker) check(ref *reference, r *result) {
	want := ref.Results
	if c.w.sampled {
		want = ref.Sampled
	}
	for o, n := range c.seen {
		if exp, ok := want[o.key]; !ok || exp != o.digest {
			c.failed += n
			r.problem("result %s…: digest %s… in %d deliveries, reference %s…", o.key[:12], o.digest[:12], n, short(exp))
		}
	}
	for table, n := range c.tables {
		if table != ref.Table2 {
			c.failed += n
			r.problem("rendered Table II differs from the reference in %d deliveries", n)
		}
	}
	r.Attempted, r.Failed = c.attempted, c.failed
}

func short(s string) string {
	if len(s) > 12 {
		return s[:12]
	}
	if s == "" {
		return "(none)"
	}
	return s
}

// sampleErrPct is the largest relative IPC error, in percent, of any
// sampled result against the full-ROI reference IPC.
func sampleErrPct(d delivery, full map[string]float64) (float64, error) {
	worst := 0.0
	for i, o := range d.outputs {
		ref, ok := full[o.key]
		if !ok || ref == 0 {
			return 0, fmt.Errorf("no full-ROI reference IPC for %s", o.key)
		}
		e := 100 * math.Abs(d.results[i].IPC-ref) / ref
		if e > worst {
			worst = e
		}
	}
	return worst, nil
}

// samples are a run's measurements: one entry per set-up, cold campaign,
// warm resubmission or cycle.
type samples struct {
	setups, campaigns, firsts, warm, peaks []float64
	firstCold                              delivery
}

// cycle sets up setupsPerCycle+1 instances from empty directories, runs
// the cold campaign on the last one, then resubmits it warm; every
// set-up joins the setup_s median. Peak RSS is watched over the set-ups
// and the cold campaign; the warm phase is left out, because how much
// garbage it piles up before a collection depends on how many
// resubmissions the host lets it fit. Spreading the warm samples over
// the whole run, rather than taking them in one burst, keeps a passing
// disturbance on the host from moving every one of them.
func (s *samples) cycle(ctx context.Context, w *workload, e *env, work string, n int, chk *checker) error {
	// Return the previous cycle's memory to the OS now, so the runtime's
	// background scavenger is not doing it during the timed set-ups, and
	// the cold campaign starts from released memory as a new process
	// would.
	debug.FreeOSMemory()
	rss := watchRSS()
	defer rss.peakMiB() // stops the watch on an early return
	// The set-ups run back to back and the extra instances are closed
	// only after the campaign's own set-up, so that no set-up is timed
	// right behind a close, which fsyncs.
	var extra []campaign
	closeExtra := func() {
		for _, c := range extra {
			c.close()
		}
		extra = nil
	}
	defer closeExtra()
	for i := 0; i <= setupsPerCycle; i++ {
		// The empty directory is the harness's, not the program's set-up.
		dir := filepath.Join(work, fmt.Sprintf("c%d-%d", n, i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		t0 := time.Now()
		c, err := w.open(e, dir, nil)
		if err != nil {
			return err
		}
		s.setups = append(s.setups, time.Since(t0).Seconds())
		extra = append(extra, c)
	}
	// The last instance set up runs the campaign.
	c := extra[len(extra)-1]
	extra = extra[:len(extra)-1]
	closeExtra()
	defer c.close()
	defer os.RemoveAll(filepath.Join(work, fmt.Sprintf("c%d-%d", n, setupsPerCycle))) //nolint:errcheck // scratch; the run's work directory is removed at exit too
	for i := 0; i < setupsPerCycle; i++ {
		if err := os.RemoveAll(filepath.Join(work, fmt.Sprintf("c%d-%d", n, i))); err != nil {
			return err
		}
	}
	cr, err := c.cold(ctx)
	s.peaks = append(s.peaks, rss.peakMiB())
	if err != nil {
		return err
	}
	s.campaigns = append(s.campaigns, cr.campaign.Seconds())
	s.firsts = append(s.firsts, cr.first.Seconds())
	chk.add(cr.d)
	if n == 0 {
		s.firstCold = cr.d
	}
	if p, ok := c.(firstProber); ok {
		for i := 0; i < probesPerCycle; i++ {
			runtime.GC()
			first, err := p.probeFirst(ctx)
			if err != nil {
				return err
			}
			s.firsts = append(s.firsts, first.Seconds())
		}
	}
	// The cold campaign's garbage is its own cost, not the warm
	// resubmissions'.
	runtime.GC()
	for i, t0 := 0, time.Now(); i < warmPerCycle || time.Since(t0) < warmMinPerCycle; i++ {
		took, d, err := c.warm(ctx)
		if err != nil {
			return err
		}
		s.warm = append(s.warm, took.Seconds()*1e3)
		chk.add(d)
	}
	return nil
}

// measure is the untraced run: it reports every end-to-end metric.
func measure(ctx context.Context, w *workload, e *env, work string, seconds float64) (*result, error) {
	res := &result{}
	chk := &checker{w: w}
	s := &samples{}
	start := time.Now()
	for n := 0; ; n++ {
		if err := s.cycle(ctx, w, e, work, n, chk); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Stop when another cycle of the average length would overrun.
		el := time.Since(start).Seconds()
		if n+1 >= minCycles && el+el/float64(n+1) > seconds {
			break
		}
	}
	elapsed := time.Since(start)

	ref, committed, err := loadRef(ctx, w, e, s.firstCold)
	if err != nil {
		return nil, err
	}
	chk.check(ref, res)

	warm := s.warm
	res.set("setup_s", median(s.setups), "s")
	res.set("campaign_s", median(s.campaigns), "s")
	res.set("peak_rss_mib", median(s.peaks), "MiB")

	src := "computed on the plain path"
	if committed {
		src = "committed"
	}
	res.notes = append(res.notes,
		fmt.Sprintf("run: workload %s, %d set-ups, %d cold campaigns, %d warm resubmissions (tail p%d has %d samples beyond it), %.1fs; reference %s",
			w.name, len(s.setups), len(s.campaigns), len(warm), warmTailPct, len(warm)-len(warm)*warmTailPct/100, elapsed.Seconds(), src),
		fmt.Sprintf("samples: campaign_s %s; first_result_s %s; warm_done_ms p10/p25/p50/p75/p90/p99 %s",
			fmtList(s.campaigns), fmtList(s.firsts), fmtList([]float64{percentile(warm, 10), percentile(warm, 25),
				median(warm), percentile(warm, 75), percentile(warm, 90), percentile(warm, 99)})),
		// Printed, not in the JSON line: across ten seeds on a shared
		// 2-core host their spread reached or passed 0.25 of the median,
		// the largest bound a gated metric may have (see
		// perfbench/README.md).
		fmt.Sprintf("metric %-34s %14.6g %s", "first_result_s", median(s.firsts), "s"),
		fmt.Sprintf("metric %-34s %14.6g %s", "warm_done_ms_p50", median(warm), "ms"),
		fmt.Sprintf("metric %-34s %14.6g %s", fmt.Sprintf("warm_done_ms_p%d", warmTailPct), percentile(warm, warmTailPct), "ms"),
		fmt.Sprintf("metric %-34s %14.6g %s", "failed_frac", float64(chk.failed)/float64(max(chk.attempted, 1)), "ratio"),
	)
	if w.sampled && ref.FullIPC != nil {
		errPct, err := sampleErrPct(s.firstCold, ref.FullIPC)
		if err != nil {
			res.problem("%v", err)
		}
		res.notes = append(res.notes, fmt.Sprintf("metric %-34s %14.6g %s", "sample_ipc_err_pct", errPct, "%"))
	} else if w.sampled {
		res.notes = append(res.notes, "sample_ipc_err_pct: only with a committed reference (seeds 1 and 2), which holds the full-ROI IPCs")
	}
	return res, nil
}

// recordRef writes the reference for w at e.seed from the plain path,
// after checking that one cold campaign reproduces it. For sweep-sampled
// it also holds the plain full-ROI digests and IPCs, the base of
// sample_ipc_err_pct.
func recordRef(ctx context.Context, w *workload, e *env, work, dir string) error {
	ref := &reference{Workload: w.name, Seed: e.seed}
	var err error
	ref.Results, ref.FullIPC, err = plainRef(ctx, w.configs(e), e.workers)
	if err != nil {
		return err
	}
	want := ref.Results
	if w.sampled {
		if ref.Sampled, err = plainSampledRef(ctx, w.configs(e), e.workers); err != nil {
			return err
		}
		want = ref.Sampled
	} else {
		ref.FullIPC = nil
	}
	c, err := w.open(e, filepath.Join(work, "record"), nil)
	if err != nil {
		return err
	}
	defer c.close()
	cr, err := c.cold(ctx)
	if err != nil {
		return err
	}
	if cr.d.errs > 0 {
		return fmt.Errorf("%d points failed", cr.d.errs)
	}
	for _, o := range cr.d.outputs {
		if want[o.key] != o.digest {
			return errors.New("campaign result differs from the plain path for " + o.key)
		}
	}
	ref.Table2 = cr.d.table2
	if err := writeRef(dir, ref); err != nil {
		return err
	}
	fmt.Printf("recorded %s (%d results)\n", filepath.Join(dir, refName(w.name, e.seed)), len(want))
	return nil
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the nearest-rank percentile for p != 50 and the usual
// median (mean of the middle pair) for p == 50.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p == 50 {
		if len(s)%2 == 1 {
			return s[len(s)/2]
		}
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	rank := (p*len(s) + 99) / 100 // ceil(p/100 · n)
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

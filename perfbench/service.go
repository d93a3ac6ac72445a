package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// servicePoints is the P_Induce grid every tenant submits.
var servicePoints = []float64{0.01, 0.05, 0.10, 0.30, 0.50, 0.90}

// Tenants A and B share 433.milc and 470.lbm: 14 of B's 28 configs are
// also A's. Tenant C resubmits the union.
var (
	tenantA = []string{"433.milc", "470.lbm", "453.povray", "450.soplex"}
	tenantB = []string{"433.milc", "470.lbm", "429.mcf", "456.hmmer"}
	tenantC = []string{"433.milc", "470.lbm", "453.povray", "450.soplex", "429.mcf", "456.hmmer"}
)

func serviceSpec(workloads []string, seed uint64) server.SweepSpec {
	return server.SweepSpec{
		Workloads: workloads, Points: servicePoints,
		WarmupInstrs: 50_000, ROIInstrs: 300_000, Seed: seed,
	}
}

// serviceConfigs is every config the service workload's tenants submit.
func serviceConfigs(seed uint64) []sim.Config {
	return serviceSpec(tenantC, seed).Configs()
}

// serviceCampaign drives an in-process pinted: server.New and Handler on
// a loopback listener, with a fresh result store, loaded by one client
// of at most two connections.
type serviceCampaign struct {
	seed   uint64
	st     *store.Store
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client

	submitMu sync.Mutex
	ids      []string
	submits  []time.Duration
	lines    int64
	bytes    int64
}

func openService(e *env, dir string, clk *supplyClock) (campaign, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, err := store.Open(store.Options{Dir: filepath.Join(dir, "store")})
	if err != nil {
		return nil, fmt.Errorf("opening result store: %w", err)
	}
	srv, err := server.New(server.Config{DataDir: filepath.Join(dir, "data"), Workers: e.workers, ResultStore: st})
	if err != nil {
		st.Close()
		return nil, err
	}
	srv.Resume()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		st.Close()
		return nil, err
	}
	c := &serviceCampaign{
		seed: e.simSeed, st: st, srv: srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
	}
	go func() {
		defer close(c.served)
		c.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Shutdown
	}()
	return c, nil
}

// submit POSTs a spec for tenant and returns the campaign ID once the
// service answers 201.
func (c *serviceCampaign) submit(ctx context.Context, tenant string, spec server.SweepSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/campaigns", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("X-Tenant", tenant)
	t0 := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	took := time.Since(t0)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("submit for %s: %s: %s", tenant, resp.Status, bytes.TrimSpace(b))
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return "", fmt.Errorf("submit for %s: %w", tenant, err)
	}
	c.submitMu.Lock()
	c.ids = append(c.ids, st.ID)
	c.submits = append(c.submits, took)
	c.submitMu.Unlock()
	return st.ID, nil
}

// stream reads a campaign's NDJSON result stream to its done line. It
// returns the outputs, when the first result line arrived, and when the
// done line arrived.
func (c *serviceCampaign) stream(ctx context.Context, id string, want int) (delivery, time.Time, time.Time, error) {
	d := delivery{expected: want}
	var first, done time.Time
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/campaigns/"+id+"/results", nil)
	if err != nil {
		return d, first, done, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return d, first, done, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return d, first, done, fmt.Errorf("results of %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	var lines, nbytes int64
	for sc.Scan() {
		lines++
		nbytes += int64(len(sc.Bytes()) + 1)
		var ev struct {
			Key    string      `json:"key"`
			Result *sim.Result `json:"result"`
			Done   bool        `json:"done"`
			State  string      `json:"state"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return d, first, done, fmt.Errorf("results of %s: %w", id, err)
		}
		if ev.Done {
			done = time.Now()
			if ev.State != string(server.StateDone) {
				return d, first, done, fmt.Errorf("campaign %s ended %s", id, ev.State)
			}
			break
		}
		if first.IsZero() {
			first = time.Now()
		}
		dg, err := digest(ev.Result)
		if err != nil {
			return d, first, done, err
		}
		d.outputs = append(d.outputs, output{key: ev.Key, digest: dg})
		d.results = append(d.results, ev.Result)
	}
	if err := sc.Err(); err != nil {
		return d, first, done, err
	}
	if done.IsZero() {
		return d, first, done, fmt.Errorf("results of %s: stream ended without a done line", id)
	}
	d.errs = want - len(d.outputs)
	if d.errs < 0 {
		d.errs = 0
	}
	c.submitMu.Lock()
	c.lines += lines
	c.bytes += nbytes
	c.submitMu.Unlock()
	return d, first, done, nil
}

// tenantRun is one tenant's submission and its stream.
type tenantRun struct {
	d           delivery
	sent, first time.Time
	done        time.Time
	err         error
}

// cold is the overlapping phase: A submits, B submits after A's 201, and
// both streams are read to their done lines concurrently.
func (c *serviceCampaign) cold(ctx context.Context) (*coldRun, error) {
	specs := []server.SweepSpec{serviceSpec(tenantA, c.seed), serviceSpec(tenantB, c.seed)}
	tenants := []string{"tenant-a", "tenant-b"}
	runs := make([]tenantRun, 2)
	var wg sync.WaitGroup
	hits0, shared0 := telemetry.StoreC.Hits.Load(), telemetry.StoreC.SingleFlightShared.Load()
	t0 := time.Now()
	for i := range specs {
		runs[i].sent = time.Now()
		id, err := c.submit(ctx, tenants[i], specs[i])
		if err != nil {
			wg.Wait()
			return nil, err
		}
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			r := &runs[i]
			r.d, r.first, r.done, r.err = c.stream(ctx, id, len(specs[i].Configs()))
		}(i, id)
	}
	wg.Wait()
	cr := &coldRun{layer: map[string]float64{}}
	var end time.Time
	var firsts []time.Duration
	for _, r := range runs {
		if r.err != nil {
			return nil, r.err
		}
		if r.done.After(end) {
			end = r.done
		}
		if !r.first.IsZero() {
			firsts = append(firsts, r.first.Sub(r.sent))
		}
		cr.d.expected += r.d.expected
		cr.d.errs += r.d.errs
		cr.d.outputs = append(cr.d.outputs, r.d.outputs...)
		cr.d.results = append(cr.d.results, r.d.results...)
	}
	cr.campaign = end.Sub(t0)
	cr.first = medianDur(firsts)
	journaled := 0
	for _, id := range c.submittedIDs() {
		n, err := journalLines(c.srv.Store().JournalPath(id))
		if err != nil {
			return nil, err
		}
		journaled += n
	}
	// Each tenant's copy of a shared config came from the store or from
	// the other tenant's in-flight run; every other point ran.
	hits, shared := telemetry.StoreC.Hits.Load()-hits0, telemetry.StoreC.SingleFlightShared.Load()-shared0
	cr.layer["journal_lines"] = float64(journaled)
	cr.layer["runner.points_from_store"] = float64(hits)
	cr.layer["runner.points_ran"] = float64(len(cr.d.outputs)) - float64(hits+shared)
	return cr, nil
}

// warm is one tenant-C resubmission of the union, answered by the
// result store: from the POST to the done line.
func (c *serviceCampaign) warm(ctx context.Context) (time.Duration, delivery, error) {
	spec := serviceSpec(tenantC, c.seed)
	t0 := time.Now()
	id, err := c.submit(ctx, "tenant-c", spec)
	if err != nil {
		return 0, delivery{}, err
	}
	d, _, done, err := c.stream(ctx, id, len(spec.Configs()))
	if err != nil {
		return 0, d, err
	}
	return done.Sub(t0), d, nil
}

func (c *serviceCampaign) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c.hs.Shutdown(ctx) //nolint:errcheck // best effort; Serve has returned either way below
	<-c.served
	c.srv.Drain(ctx) //nolint:errcheck // every campaign has finished by now
	c.srv.Close()
	c.st.Close()
	c.client.CloseIdleConnections()
}

func (c *serviceCampaign) submitTimes() []time.Duration {
	c.submitMu.Lock()
	defer c.submitMu.Unlock()
	return append([]time.Duration(nil), c.submits...)
}

func (c *serviceCampaign) submittedIDs() []string {
	c.submitMu.Lock()
	defer c.submitMu.Unlock()
	return append([]string(nil), c.ids...)
}

func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

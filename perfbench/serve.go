package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"sentinel3d/internal/mathx"
	"sentinel3d/internal/obs"
	"sentinel3d/internal/serve"
	"sentinel3d/internal/ssdsim"
)

// serveWorkload drives an in-process flashd server with serve.RunBench
// in a closed loop over two connections: tenant gold sends single-page
// sentinel reads, tenant bronze batches of three table-policy reads.
// Every timed batch replays the same request streams, so every batch
// must produce the same deterministic report.
type serveWorkload struct{}

const (
	serveShards = 2
	// warmupRequests per tenant are part of setup, so that setup_s
	// measures a server that has served traffic rather than a 20 ms
	// start-up.
	warmupRequests = 1500
	// batchRequests per tenant make one RunBench call of the timed phase.
	batchRequests = 1000
)

func serveConfig(seed uint64) serve.Config {
	sim := ssdsim.DefaultConfig()
	sim.Geo = replayGeometry
	sim.Seed = seed
	return serve.Config{
		Fleet: ssdsim.FleetConfig{Sim: sim, Shards: serveShards, Samplers: serve.DefaultSamplers()},
		// Rate limits off: RatePerSec 0 means no token bucket.
		Tenants: []serve.TenantConfig{
			{Name: "gold", Tier: 0, SLOMs: 20, Policy: "sentinel", DeadlineMs: 250},
			{Name: "bronze", Tier: 2, SLOMs: 200, Policy: "table", DeadlineMs: 1000},
		},
	}
}

// serveTenants are the two closed loops, one connection each: gold
// sends single-page reads, bronze batches of three.
var serveTenants = []struct {
	name  string
	width int
}{{"gold", 1}, {"bronze", 3}}

func tenantSeed(seed uint64, ti int) uint64 { return mathx.Mix3(seed, 0xbe4c, uint64(ti)) }

// benchConfig is one closed-loop batch of n requests for tenant ti.
func benchConfig(url string, seed uint64, ti int, maxLPN, n int64, client *http.Client) serve.BenchConfig {
	t := serveTenants[ti]
	return serve.BenchConfig{
		BaseURL: url, Seed: tenantSeed(seed, ti), MaxLPN: maxLPN, Client: client,
		Tenants: []serve.BenchTenant{{Name: t.name, Workers: 1, Requests: n, BatchSize: t.width}},
	}
}

// tenantRun is one tenant's share of a drive.
type tenantRun struct {
	first    *serve.BenchReport
	det      []byte
	batches  int
	requests int64
}

// drive runs every tenant's closed loop concurrently, batch after batch
// of n requests, until the deadline has passed (at least one batch
// each). Each loop replays the same stream every batch, so every batch
// must produce the same deterministic report.
func drive(url string, seed uint64, maxLPN, n int64, client *http.Client, until time.Time, tr *tracer, parent int) ([]tenantRun, error) {
	runs := make([]tenantRun, len(serveTenants))
	errs := make([]error, len(serveTenants))
	var wg sync.WaitGroup
	for ti := range serveTenants {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			r := &runs[ti]
			for r.batches == 0 || time.Now().Before(until) {
				id := tr.begin("serve.RunBench", parent)
				ctx := context.WithValue(context.Background(), spanKey{}, id)
				rep, err := serve.RunBench(ctx, benchConfig(url, seed, ti, maxLPN, n, client))
				tr.end(id)
				if err == nil {
					err = checkBench(rep)
				}
				var det []byte
				if err == nil {
					det, err = json.Marshal(rep.Deterministic())
				}
				if err == nil && r.first != nil && string(det) != string(r.det) {
					err = fmt.Errorf("serve: %s batch %d differs from batch 0", serveTenants[ti].name, r.batches)
				}
				if err != nil {
					errs[ti] = err
					return
				}
				if r.first == nil {
					r.first, r.det = rep, det
				}
				r.batches++
				r.requests += rep.Tenants[0].Requests
			}
		}(ti)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// timingTransport records every request's client latency, from sending
// the request to closing the response body (RunBench closes it after
// decoding), and in traced runs a span per request, tagged with a
// request id and parented to the RunBench span named by the request's
// context.
type timingTransport struct {
	base *http.Transport
	tr   *tracer
	mu   sync.Mutex
	n    int64
	lats []float64
}

// spanKey carries the parent span id in a request's context.
type spanKey struct{}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	parent, _ := req.Context().Value(spanKey{}).(int)
	resp.Body = &timedBody{ReadCloser: resp.Body, t: t, t0: t0, parent: parent}
	return resp, nil
}

func (t *timingTransport) record(t0, t1 time.Time, parent int) {
	t.mu.Lock()
	t.n++
	id := t.n
	t.lats = append(t.lats, float64(t1.Sub(t0).Nanoseconds())/1e3)
	t.mu.Unlock()
	t.tr.add("serve.http", parent, t0, t1, id)
}

// reset clears the samples.
func (t *timingTransport) reset() {
	t.mu.Lock()
	t.lats = nil
	t.mu.Unlock()
}

type timedBody struct {
	io.ReadCloser
	t      *timingTransport
	t0     time.Time
	parent int
	once   sync.Once
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.t.record(b.t0, time.Now(), b.parent) })
	return err
}

// checkBench fails unless every request of an unloaded closed loop was
// accounted and answered 200.
func checkBench(rep *serve.BenchReport) error {
	if err := rep.AccountingErr(); err != nil {
		return err
	}
	for _, t := range rep.Tenants {
		if t.OK != t.Requests {
			return fmt.Errorf("serve: tenant %s: %d of %d requests not 200", t.Tenant, t.Requests-t.OK, t.Requests)
		}
	}
	return nil
}

type serveSetup struct {
	srv       *serve.Server
	client    *http.Client
	transport *timingTransport
	times     map[string]float64
}

func (s *serveSetup) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	s.transport.base.CloseIdleConnections()
	return err
}

func (w *serveWorkload) setup(seed uint64, tr *tracer, parent int) (*serveSetup, error) {
	st := &serveSetup{times: map[string]float64{}}
	timed := func(name string, fn func() error) error {
		return timeChild(tr, parent, st.times, name, fn)
	}
	var err error
	if err := timed("serve.New", func() error {
		st.srv, err = serve.New(serveConfig(seed))
		return err
	}); err != nil {
		return nil, err
	}
	st.transport = &timingTransport{base: &http.Transport{MaxIdleConnsPerHost: 2}}
	st.client = &http.Client{Transport: st.transport}
	if err := timed("serve.Start", func() error { return st.srv.Start("127.0.0.1:0") }); err != nil {
		st.close()
		return nil, err
	}
	if err := timed("serve.warmup", func() error {
		_, err := drive("http://"+st.srv.Addr(), seed, st.srv.Fleet().PremapPages(), warmupRequests,
			st.client, time.Time{}, nil, 0)
		return err
	}); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (w *serveWorkload) run(cfg runConfig, tr *tracer) (*result, error) {
	res := newResult()
	root := tr.begin("run", 0)
	defer tr.end(root)

	var st *serveSetup
	var setupS []float64
	for rep := 0; rep < setupReps; rep++ {
		var rtr *tracer
		if rep == setupReps-1 {
			rtr = tr
		}
		id := rtr.begin("setup", root)
		c0 := cpuSeconds()
		s, err := w.setup(cfg.seed, rtr, id)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, cpuSeconds()-c0)
		rtr.end(id)
		if rep < setupReps-1 {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		st = s
	}
	defer st.close()
	res.e2e["setup_s"] = median(append([]float64(nil), setupS...))

	url := "http://" + st.srv.Addr()
	maxLPN := st.srv.Fleet().PremapPages()
	timedID := tr.begin("timed", root)
	st.transport.reset()
	st.transport.tr = tr
	startPeakRSS()
	rt0 := readRuntime()
	start, c0 := time.Now(), cpuSeconds()
	runs, err := drive(url, cfg.seed, maxLPN, batchRequests, st.client, start.Add(cfg.duration), tr, timedID)
	if err != nil {
		return nil, err
	}
	wall, cpu := time.Since(start).Seconds(), cpuSeconds()-c0
	rt1 := readRuntime()
	tr.end(timedID)
	transitions := len(st.srv.Ladder().Transitions())
	if transitions != 0 {
		return nil, fmt.Errorf("serve: overload ladder moved %d times in an unloaded closed loop", transitions)
	}

	var requests int64
	var reads, retries, simSum, simP99 float64
	for ti, r := range runs {
		t := r.first.Tenants[0]
		n := float64(t.OK * int64(serveTenants[ti].width))
		reads += n
		retries += float64(t.Retries)
		simSum += t.SimMeanUS * n
		simP99 = max(simP99, t.SimP99US)
		requests += r.requests
		res.det = append(res.det, r.det...)
		res.info += fmt.Sprintf("%s: %d batches of %d requests; ", t.Tenant, r.batches, batchRequests)
	}
	res.attempted = requests
	res.e2e["ops_per_cpu_s"] = float64(requests) / cpu
	res.layers["ops_per_wall_s"] = float64(requests) / wall
	res.e2e["max_rss_mib"] = peakRSSMiB()
	st.transport.mu.Lock()
	lats := append([]float64(nil), st.transport.lats...)
	st.transport.mu.Unlock()
	sort.Float64s(lats)
	if int64(len(lats)) != requests {
		return nil, fmt.Errorf("serve: %d client latencies for %d requests", len(lats), requests)
	}
	res.e2e["wall_p50_us"] = quantile(lats, 0.50)
	res.e2e["sim_read_mean_us"] = simSum / reads
	res.e2e["sim_read_p99_us"] = simP99
	res.e2e["retries_per_read"] = retries / reads
	res.e2e["ok_frac"] = 1 // checkBench failed the run unless every request was answered 200
	runtimeLayer(rt0, rt1, requests, res.runtime)

	L := res.layers
	L["serve.ladder_transitions"] = float64(transitions)
	if !cfg.traced {
		return res, nil
	}
	setupSum := 0.0
	for name, s := range st.times {
		L[name+"_s"] = s
		setupSum += s
	}
	L["setup.children_frac"] = setupSum / setupS[setupReps-1]
	L["serve.http_rtt_us_p50"], L["serve.http_rtt_us_p99"] = quantile(lats, 0.50), quantile(lats, 0.99)
	snap := st.srv.Registry().Snapshot()
	L["fleet.queue_wait_us_p99"] = hist(snap, "fleet.queue_wait_us").Quantile(0.99)
	L["fleet.shard_imbalance"] = shardImbalance(st.srv.Registry())

	id := tr.begin("isolated", root)
	defer tr.end(id)
	p50, p99sub, err := timeFleet(tr, id, cfg.seed, maxLPN)
	if err != nil {
		return nil, err
	}
	L["serve.fleet_submit_us_p50"], L["serve.fleet_submit_us_p99"] = p50, p99sub
	L["serve.overhead_us_p50"] = L["serve.http_rtt_us_p50"] - p50
	L["share.http_frac"] = L["serve.overhead_us_p50"] / L["serve.http_rtt_us_p50"]
	return res, nil
}

// shardImbalance is max ÷ mean of the reads each fleet shard serviced.
func shardImbalance(reg *obs.Registry) float64 {
	var maxN, sum int64
	for s := 0; s < serveShards; s++ {
		n := reg.Set(s).Counter("fleet.reads_serviced", "").Value()
		sum += n
		maxN = max(maxN, n)
	}
	return float64(maxN) * serveShards / float64(sum)
}

// timeFleet sends one batch's read streams straight to Fleet.Submit on
// an identically configured fleet, with the server's concurrency: gold
// submits one read at a time, bronze three at once. It returns the
// p50 and p99 per-request latency in µs.
func timeFleet(tr *tracer, parent int, seed uint64, maxLPN int64) (float64, float64, error) {
	cfg := serveConfig(seed)
	fleet, err := ssdsim.NewFleet(cfg.Fleet)
	if err != nil {
		return 0, 0, err
	}
	defer fleet.Close()
	id := tr.begin("ssdsim.Fleet", parent)
	defer tr.end(id)
	policies := []string{"sentinel", "table"}
	widths := []int{1, 3}
	lats := make([][]float64, 2)
	var errMu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for ti := range policies {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			// The same stream RunBench draws for this tenant's worker 0.
			rng := mathx.NewRand(mathx.Mix3(tenantSeed(seed, ti), 0, 0))
			for i := 0; i < batchRequests; i++ {
				lpns := make([]int64, widths[ti])
				for j := range lpns {
					lpns[j] = int64(rng.Intn(int(maxLPN)))
				}
				t0 := time.Now()
				var sub sync.WaitGroup
				for _, lpn := range lpns {
					sub.Add(1)
					go func(lpn int64) {
						defer sub.Done()
						if _, err := fleet.Submit(context.Background(), ssdsim.FleetRead{LPN: lpn, Pages: 1, Policy: policies[ti]}); err != nil {
							errMu.Lock()
							firstErr = err
							errMu.Unlock()
						}
					}(lpn)
				}
				sub.Wait()
				t1 := time.Now()
				lats[ti] = append(lats[ti], float64(t1.Sub(t0).Nanoseconds())/1e3)
				tr.add("ssdsim.Fleet.Submit", id, t0, t1, int64(i))
			}
		}(ti)
	}
	wg.Wait()
	if firstErr != nil {
		return 0, 0, firstErr
	}
	all := append(lats[0], lats[1]...)
	sort.Float64s(all)
	return quantile(all, 0.50), quantile(all, 0.99), nil
}

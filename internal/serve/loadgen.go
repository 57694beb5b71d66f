package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"sentinel3d/internal/mathx"
)

// This file is the flashbench load-generator library: closed- and
// open-loop per-tenant arrival streams against a flashd /read
// endpoint, with deterministic seeds split per (seed, tenant, worker)
// via the same Mix3 machinery the simulators use.
//
// Report determinism contract: in closed-loop mode every worker's LPN
// stream is a pure function of its seed and its request count is fixed
// up front, and the server's per-read outcomes are pure functions of
// (server seed, LPN, policy). The multiset of observed outcomes is
// therefore schedule-independent, and BenchReport.Deterministic() —
// counts, outcome sums, XOR checksums, percentiles over *simulated*
// service time — renders byte-identically across runs. Wall-clock
// figures (achieved rps, wall percentiles, SLO violations) live in the
// volatile section, which Deterministic() strips.

// BenchTenant is one tenant's load stream.
type BenchTenant struct {
	// Name must match a server-side tenant.
	Name string `json:"name"`
	// Workers is the closed-loop concurrency (default 4).
	Workers int `json:"workers,omitempty"`
	// Requests is the closed-loop total request count (default 1000),
	// split deterministically across workers.
	Requests int64 `json:"requests,omitempty"`
	// RateRPS is the open-loop arrival rate (requests/s, default 100).
	RateRPS float64 `json:"rate_rps,omitempty"`
	// BatchSize > 1 sends batch requests of that many LPNs (default 1).
	BatchSize int `json:"batch_size,omitempty"`
	// Pages per read (default 1).
	Pages int `json:"pages,omitempty"`
	// DeadlineMs overrides the tenant's server-side default deadline.
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
	// SLOMs is the latency objective used for client-side SLO-violation
	// counting (0 disables).
	SLOMs float64 `json:"slo_ms,omitempty"`
}

func (t *BenchTenant) withDefaults() error {
	if t.Name == "" {
		return fmt.Errorf("serve: bench tenant with empty name")
	}
	if t.Workers <= 0 {
		t.Workers = 4
	}
	if t.Requests <= 0 {
		t.Requests = 1000
	}
	if t.RateRPS <= 0 {
		t.RateRPS = 100
	}
	if t.BatchSize <= 0 {
		t.BatchSize = 1
	}
	if t.Pages <= 0 {
		t.Pages = 1
	}
	return nil
}

// LoadPhase scales every tenant's open-loop rate for a slice of the
// run — the ramp mechanism. Phases repeat until the run ends.
type LoadPhase struct {
	Duration  time.Duration `json:"duration"`
	RateScale float64       `json:"rate_scale"`
}

// BenchConfig parameterizes one flashbench run.
type BenchConfig struct {
	// BaseURL is the flashd endpoint, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Seed keys every tenant/worker arrival stream.
	Seed uint64
	// MaxLPN bounds the uniform LPN draw [0, MaxLPN); it should match
	// the server's premapped footprint. Required.
	MaxLPN int64
	// OpenLoop selects arrival-rate mode; default is closed loop.
	OpenLoop bool
	// Duration bounds an open-loop run (default 5s). Closed-loop runs
	// end when every worker finishes its request quota.
	Duration time.Duration
	// Phases ramp the open-loop rates (optional; default one flat phase).
	Phases []LoadPhase
	// Tenants are the load streams.
	Tenants []BenchTenant
	// Client is the HTTP client (default: keep-alive transport with
	// generous connection pools, whose idle connections RunBench closes
	// on return; a caller-supplied client is left as is).
	Client *http.Client
}

// Percentile is the nearest-rank percentile of a sorted sample.
func Percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The conversion rounds the product on its own, so no GOARCH fuses
	// it into a multiply-add and moves a rank.
	i := int(float64(q*float64(len(sorted)))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// TenantReport is one tenant's section of the final report.
type TenantReport struct {
	Tenant   string `json:"tenant"`
	Requests int64  `json:"requests"`

	// Status counts; Requests = sum of these.
	OK          int64 `json:"ok"`
	Shed        int64 `json:"shed"`
	Throttled   int64 `json:"throttled"`
	QueueFull   int64 `json:"queue_full"`
	Deadline    int64 `json:"deadline"`
	Unavailable int64 `json:"unavailable"`
	Overflow    int64 `json:"overflow"`
	OtherErrors int64 `json:"other_errors"`

	// Outcome sums over OK responses.
	Retries       int64 `json:"retries"`
	AuxSenses     int64 `json:"aux_senses"`
	Fallback      int64 `json:"fallback"`
	Uncorrectable int64 `json:"uncorrectable"`
	FailFast      int64 `json:"fail_fast"`
	ForcedPolicy  int64 `json:"forced_policy"`

	// Check is the XOR over all per-read outcome checksums (hex) — the
	// proof two runs observed identical outcomes.
	Check string `json:"check"`

	// Simulated-service-time percentiles (µs) over OK reads; exact,
	// computed from the sorted sample.
	SimP50US  float64 `json:"sim_p50_us"`
	SimP95US  float64 `json:"sim_p95_us"`
	SimP99US  float64 `json:"sim_p99_us"`
	SimMaxUS  float64 `json:"sim_max_us"`
	SimMeanUS float64 `json:"sim_mean_us"`

	// Volatile wall-clock section — stripped by Deterministic().
	AchievedRPS   float64 `json:"achieved_rps"`
	WallP50Ms     float64 `json:"wall_p50_ms"`
	WallP95Ms     float64 `json:"wall_p95_ms"`
	WallP99Ms     float64 `json:"wall_p99_ms"`
	SLOViolations int64   `json:"slo_violations"`
}

// BenchReport is the final flashbench report.
type BenchReport struct {
	Seed    uint64         `json:"seed"`
	Mode    string         `json:"mode"`
	Tenants []TenantReport `json:"tenants"`
	// WallSeconds is volatile.
	WallSeconds float64 `json:"wall_seconds"`
}

// Deterministic returns a copy with every wall-clock-derived field
// zeroed; its JSON rendering is the byte-identity contract of
// closed-loop runs.
func (r *BenchReport) Deterministic() *BenchReport {
	out := *r
	out.WallSeconds = 0
	out.Tenants = make([]TenantReport, len(r.Tenants))
	copy(out.Tenants, r.Tenants)
	for i := range out.Tenants {
		t := &out.Tenants[i]
		t.AchievedRPS = 0
		t.WallP50Ms, t.WallP95Ms, t.WallP99Ms = 0, 0, 0
		t.SLOViolations = 0
	}
	return &out
}

// WriteJSON renders the report as indented JSON.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// AccountingErr checks the status-count identity per tenant: every
// issued request must be accounted under exactly one status. A
// non-nil error is an SLO-accounting mismatch (the soak job's gate).
func (r *BenchReport) AccountingErr() error {
	for _, t := range r.Tenants {
		sum := t.OK + t.Shed + t.Throttled + t.QueueFull + t.Deadline +
			t.Unavailable + t.Overflow + t.OtherErrors
		if sum != t.Requests {
			return fmt.Errorf("tenant %q: %d requests but %d accounted",
				t.Tenant, t.Requests, sum)
		}
	}
	return nil
}

// benchAcc accumulates one tenant's results; all fields are
// order-independent (counts, XOR, multiset of samples), so concurrent
// workers can merge in any order.
type benchAcc struct {
	mu     sync.Mutex
	rep    TenantReport
	check  uint64
	sim    []float64
	wallMS []float64
	sloMS  float64
}

func (a *benchAcc) record(status int, body *ReadResponse, errCode string, wall time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rep.Requests++
	a.wallMS = append(a.wallMS, float64(wall.Microseconds())/1e3)
	if a.sloMS > 0 && wall > time.Duration(a.sloMS*float64(time.Millisecond)) {
		a.rep.SLOViolations++
	}
	switch {
	case status == http.StatusOK:
		a.rep.OK++
	case status == http.StatusServiceUnavailable && errCode == "shed":
		a.rep.Shed++
	case status == http.StatusServiceUnavailable:
		a.rep.Unavailable++
	case status == http.StatusTooManyRequests && errCode == "queue_full":
		a.rep.QueueFull++
	case status == http.StatusTooManyRequests: // throttled, inflight_cap
		a.rep.Throttled++
	case status == http.StatusGatewayTimeout:
		a.rep.Deadline++
	default:
		a.rep.OtherErrors++
	}
	if status == http.StatusOK && body != nil {
		if body.ForcedPolicy {
			a.rep.ForcedPolicy++
		}
		for _, res := range body.Results {
			a.rep.Retries += int64(res.Retries)
			a.rep.AuxSenses += int64(res.AuxSenses)
			if res.UsedFallback {
				a.rep.Fallback++
			}
			if res.Uncorrectable {
				a.rep.Uncorrectable++
			}
			if res.FailFast {
				a.rep.FailFast++
			}
			if c, err := strconv.ParseUint(res.Check, 16, 64); err == nil {
				a.check ^= c
			}
			a.sim = append(a.sim, res.SimUS)
		}
	}
}

func (a *benchAcc) finish(wallSeconds float64) TenantReport {
	a.mu.Lock()
	defer a.mu.Unlock()
	sort.Float64s(a.sim)
	sort.Float64s(a.wallMS)
	r := a.rep
	r.Check = strconv.FormatUint(a.check, 16)
	r.SimP50US = Percentile(a.sim, 0.50)
	r.SimP95US = Percentile(a.sim, 0.95)
	r.SimP99US = Percentile(a.sim, 0.99)
	if n := len(a.sim); n > 0 {
		r.SimMaxUS = a.sim[n-1]
		var sum float64
		for _, v := range a.sim { // sorted order: fixed summation order
			sum += v
		}
		r.SimMeanUS = sum / float64(n)
	}
	r.WallP50Ms = Percentile(a.wallMS, 0.50)
	r.WallP95Ms = Percentile(a.wallMS, 0.95)
	r.WallP99Ms = Percentile(a.wallMS, 0.99)
	if wallSeconds > 0 {
		r.AchievedRPS = float64(r.Requests) / wallSeconds
	}
	return r
}

// benchClient issues /read calls and feeds an accumulator.
type benchClient struct {
	url    string
	client *http.Client
}

func (c *benchClient) do(ctx context.Context, req ReadRequest) (status int, body *ReadResponse, errCode string, err error) {
	// The request body is not pooled: the transport may still read it
	// after Do returns (an early error response, a retried request).
	reqBody, err := appendReadRequest(make([]byte, 0, 128), &req)
	if err != nil {
		return 0, nil, "", err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+"/read", bytes.NewReader(reqBody))
	if err != nil {
		return 0, nil, "", err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(hreq)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		_ = json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&eb)
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil, eb.Error, nil
	}
	buf := getWireBuf()
	defer putWireBuf(buf)
	var rerr error
	*buf, rerr = readBody((*buf)[:0], resp.Body)
	var rb ReadResponse
	if err := unmarshalReadResponse(*buf, &rb); err != nil {
		if rerr != nil {
			err = rerr
		}
		return resp.StatusCode, nil, "", err
	}
	return resp.StatusCode, &rb, "", nil
}

// RunBench executes the configured load and returns the final report.
// ctx cancellation stops the run early; the partial report is still
// returned (the SIGINT path of cmd/flashbench).
func RunBench(ctx context.Context, cfg BenchConfig) (*BenchReport, error) {
	if cfg.MaxLPN <= 0 {
		return nil, fmt.Errorf("serve: bench needs MaxLPN > 0")
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("serve: bench needs at least one tenant")
	}
	for i := range cfg.Tenants {
		if err := cfg.Tenants[i].withDefaults(); err != nil {
			return nil, err
		}
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.Client == nil {
		tr := &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 256,
		}
		// A dialed-but-unused connection stays StateNew on the server,
		// which http.Server.Shutdown waits on as if it were active; close
		// the bench's own idle connections so the server can drain.
		defer tr.CloseIdleConnections()
		cfg.Client = &http.Client{Transport: tr}
	}
	bc := &benchClient{url: cfg.BaseURL, client: cfg.Client}

	accs := make([]*benchAcc, len(cfg.Tenants))
	for i, t := range cfg.Tenants {
		accs[i] = &benchAcc{rep: TenantReport{Tenant: t.Name}, sloMS: t.SLOMs}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for ti := range cfg.Tenants {
		t := cfg.Tenants[ti]
		acc := accs[ti]
		if cfg.OpenLoop {
			wg.Add(1)
			go func(ti int) {
				defer wg.Done()
				runOpenLoop(ctx, bc, cfg, ti, acc)
			}(ti)
			continue
		}
		for w := 0; w < t.Workers; w++ {
			n := t.Requests / int64(t.Workers)
			if int64(w) < t.Requests%int64(t.Workers) {
				n++
			}
			wg.Add(1)
			go func(ti, w int, n int64) {
				defer wg.Done()
				runClosedWorker(ctx, bc, cfg, ti, w, n, acc)
			}(ti, w, n)
		}
	}
	wg.Wait()
	wall := time.Since(start).Seconds()

	rep := &BenchReport{Seed: cfg.Seed, Mode: "closed", WallSeconds: wall}
	if cfg.OpenLoop {
		rep.Mode = "open"
	}
	for _, acc := range accs {
		rep.Tenants = append(rep.Tenants, acc.finish(wall))
	}
	sort.Slice(rep.Tenants, func(i, j int) bool {
		return rep.Tenants[i].Tenant < rep.Tenants[j].Tenant
	})
	return rep, nil
}

// nextRequest draws one request from a worker's deterministic stream.
func nextRequest(rng *mathx.Rand, t BenchTenant, maxLPN int64) ReadRequest {
	req := ReadRequest{Tenant: t.Name, DeadlineMs: t.DeadlineMs}
	if t.BatchSize > 1 {
		req.Batch = make([]BatchRead, t.BatchSize)
		for i := range req.Batch {
			req.Batch[i] = BatchRead{LPN: int64(rng.Intn(int(maxLPN))), Pages: t.Pages}
		}
	} else {
		lpn := int64(rng.Intn(int(maxLPN)))
		req.LPN = &lpn
		req.Pages = t.Pages
	}
	return req
}

// runClosedWorker is one closed-loop worker: n sequential requests
// from the stream keyed by (seed, tenant index, worker index).
func runClosedWorker(ctx context.Context, bc *benchClient, cfg BenchConfig, ti, w int, n int64, acc *benchAcc) {
	rng := mathx.NewRand(mathx.Mix3(cfg.Seed, uint64(ti), uint64(w)))
	t := cfg.Tenants[ti]
	for i := int64(0); i < n; i++ {
		if ctx.Err() != nil {
			return
		}
		req := nextRequest(rng, t, cfg.MaxLPN)
		rstart := time.Now()
		status, body, code, err := bc.do(ctx, req)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			status = 0 // transport error → OtherErrors
		}
		acc.record(status, body, code, time.Since(rstart))
	}
}

// openLoopInflight caps outstanding open-loop requests per tenant;
// arrivals past the cap are counted as Overflow, not sent — the
// client-side analogue of shedding.
const openLoopInflight int = 64

// runOpenLoop is one tenant's open-loop dispatcher: arrivals at the
// phase-scaled rate, each serviced by a goroutine drawn from a bounded
// in-flight pool; arrivals finding the pool empty count as Overflow.
func runOpenLoop(ctx context.Context, bc *benchClient, cfg BenchConfig, ti int, acc *benchAcc) {
	t := cfg.Tenants[ti]
	rng := mathx.NewRand(mathx.Mix3(cfg.Seed, uint64(ti), 0xa11))
	phases := cfg.Phases
	if len(phases) == 0 {
		phases = []LoadPhase{{Duration: cfg.Duration, RateScale: 1}}
	}
	sem := make(chan struct{}, openLoopInflight)
	var wg sync.WaitGroup
	defer wg.Wait()
	end := time.Now().Add(cfg.Duration)
	pi, phaseEnd := 0, time.Now().Add(phases[0].Duration)
	for time.Now().Before(end) {
		if ctx.Err() != nil {
			return
		}
		for time.Now().After(phaseEnd) {
			pi = (pi + 1) % len(phases)
			phaseEnd = phaseEnd.Add(phases[pi].Duration)
		}
		scale := phases[pi].RateScale
		if scale <= 0 {
			scale = 1
		}
		interval := time.Duration(float64(time.Second) / (t.RateRPS * scale))
		req := nextRequest(rng, t, cfg.MaxLPN)
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func(req ReadRequest) {
				defer wg.Done()
				defer func() { <-sem }()
				rstart := time.Now()
				status, body, code, err := bc.do(ctx, req)
				if err != nil {
					if ctx.Err() != nil {
						return
					}
					status = 0
				}
				acc.record(status, body, code, time.Since(rstart))
			}(req)
		default:
			acc.mu.Lock()
			acc.rep.Requests++
			acc.rep.Overflow++
			acc.mu.Unlock()
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(interval):
		}
	}
}

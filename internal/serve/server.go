// Package serve is the online serving layer over the ssdsim Fleet: a
// JSON-over-HTTP read server (cmd/flashd) with per-tenant QoS
// (token-bucket admission, latency-SLO tiers, per-tenant retry
// policy), request deadlines stamped on every fleet read, bounded
// backpressure (429 + Retry-After, never unbounded goroutine growth),
// a three-step overload/degradation ladder (shed lowest tier → force
// static-table policy → fail fast with a capped retry budget), and
// graceful drain on SIGTERM.
//
// The request path is: in-flight cap → drain check → tenant lookup →
// ladder shed → token bucket → deadline stamp → fleet submit →
// post-service deadline+grace check. The last step is what makes the
// "no request is served past deadline+grace" guarantee hold by
// construction: a reply that comes back late is converted to 504, so a
// 200 is only ever written inside the window.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sentinel3d/internal/obs"
	"sentinel3d/internal/ssdsim"
)

// Config parameterizes a Server.
type Config struct {
	// Fleet configures the sharded device fleet. Fleet.Metrics is
	// overwritten with the server's registry.
	Fleet ssdsim.FleetConfig
	// Tenants is the QoS roster (default DefaultTenants). Every tenant
	// policy must name a Fleet sampler, and a "table" sampler must exist
	// for the ladder's force-table step.
	Tenants []TenantConfig
	// Grace is the slack past a request's deadline before a completed
	// read is discarded as a 504 (default 100ms).
	Grace time.Duration
	// Obs is the metrics registry (default: a fresh one sized to the
	// fleet's shard count). The debug endpoint serves its snapshots.
	Obs *obs.Registry
}

func (c *Config) withDefaults() {
	if c.Grace <= 0 {
		c.Grace = 100 * time.Millisecond
	}
	if c.Obs == nil {
		shards := c.Fleet.Shards
		if shards < 1 {
			shards = 1
		}
		c.Obs = obs.NewRegistry(shards)
	}
	if len(c.Tenants) == 0 {
		c.Tenants = DefaultTenants()
	}
}

const (
	// maxInflight caps concurrently handled /read requests; excess
	// requests bounce with 429 before any other work.
	maxInflight = 1024
	// maxBatch caps reads per batch request.
	maxBatch = 256
	// batchFanout bounds the goroutines that service one batch request,
	// the handler's own included: a batch starts at most batchFanout-1,
	// so worst-case goroutine count is maxInflight*batchFanout — a
	// constant product, never a function of load.
	batchFanout = 8
)

// ReadRequest is the /read body: either a single read (lpn set) or a
// batch. DeadlineMs overrides the tenant's default deadline.
type ReadRequest struct {
	Tenant     string      `json:"tenant"`
	LPN        *int64      `json:"lpn,omitempty"`
	Pages      int         `json:"pages,omitempty"`
	Batch      []BatchRead `json:"batch,omitempty"`
	DeadlineMs float64     `json:"deadline_ms,omitempty"`
}

// BatchRead is one entry of a batch request.
type BatchRead struct {
	LPN   int64 `json:"lpn"`
	Pages int   `json:"pages,omitempty"`
}

// ReadResult is one read's outcome in a /read response. Check is the
// fleet's deterministic outcome checksum in hex (a string because the
// value uses all 64 bits).
type ReadResult struct {
	LPN           int64   `json:"lpn"`
	SimUS         float64 `json:"sim_us"`
	QueueWaitUS   float64 `json:"queue_wait_us"`
	Shard         int     `json:"shard"`
	Retries       int     `json:"retries"`
	AuxSenses     int     `json:"aux_senses"`
	UsedFallback  bool    `json:"used_fallback,omitempty"`
	Uncorrectable bool    `json:"uncorrectable,omitempty"`
	FailFast      bool    `json:"fail_fast,omitempty"`
	UnmappedPages int     `json:"unmapped_pages,omitempty"`
	Check         string  `json:"check"`
	Error         string  `json:"error,omitempty"`
}

// ReadResponse is the 200 body of /read.
type ReadResponse struct {
	Tenant       string       `json:"tenant"`
	Policy       string       `json:"policy"`
	DegradeLevel int          `json:"degrade_level"`
	ForcedPolicy bool         `json:"forced_policy,omitempty"`
	Results      []ReadResult `json:"results"`
}

// errorBody is every non-200 body: a stable machine-readable code.
type errorBody struct {
	Error string `json:"error"`
}

// Server owns the fleet, the tenant registry, the ladder and the HTTP
// front end. Build with New, run with Start, drain with Shutdown.
type Server struct {
	cfg     Config
	fleet   *ssdsim.Fleet
	tenants map[string]*tenant
	ladder  *Ladder

	httpSrv *http.Server
	ln      net.Listener

	inflight chan struct{}
	draining atomic.Bool

	inflightRejects *obs.Counter
	lateReplies     *obs.Counter
}

// New validates the configuration, builds the fleet (premapping the
// logical space) and wires the handlers. The server is not listening
// yet; call Start.
func New(cfg Config) (*Server, error) {
	cfg.withDefaults()
	cfg.Fleet.Metrics = cfg.Obs
	if _, ok := cfg.Fleet.Samplers["table"]; !ok {
		return nil, fmt.Errorf("serve: fleet has no %q sampler for the ladder's force-table step", "table")
	}
	fleet, err := ssdsim.NewFleet(cfg.Fleet)
	if err != nil {
		return nil, err
	}
	set := cfg.Obs.Set(0)
	s := &Server{
		cfg:             cfg,
		fleet:           fleet,
		tenants:         make(map[string]*tenant, len(cfg.Tenants)),
		ladder:          newLadder(fleet.MaxQueueFrac, set),
		inflight:        make(chan struct{}, maxInflight),
		inflightRejects: set.Counter("serve.inflight_rejects", "requests bounced by the global in-flight cap"),
		lateReplies:     set.Counter("serve.late_replies", "completed reads discarded past deadline+grace"),
	}
	for _, tc := range cfg.Tenants {
		if err := tc.withDefaults(); err != nil {
			fleet.Close()
			return nil, err
		}
		if _, dup := s.tenants[tc.Name]; dup {
			fleet.Close()
			return nil, fmt.Errorf("serve: duplicate tenant %q", tc.Name)
		}
		if _, ok := cfg.Fleet.Samplers[tc.Policy]; !ok {
			fleet.Close()
			return nil, fmt.Errorf("serve: tenant %q names unknown policy %q", tc.Name, tc.Policy)
		}
		s.tenants[tc.Name] = newTenant(tc, set)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/read", s.handleRead)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	// Unmatched paths (including /metrics, /slow, /debug/*) fall through
	// to the obs debug endpoint, so one listener serves both planes.
	mux.Handle("/", obs.DebugMux(cfg.Obs))
	s.httpSrv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	return s, nil
}

// Start binds addr and begins serving; it returns once the listener is
// bound (ask for port 0 and read Addr in tests).
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.ladder.start()
	go func() { _ = s.httpSrv.Serve(ln) }()
	return nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Fleet exposes the device fleet (chaos tests drive its pressure).
func (s *Server) Fleet() *ssdsim.Fleet { return s.fleet }

// Ladder exposes the overload controller (tests assert transitions).
func (s *Server) Ladder() *Ladder { return s.ladder }

// Registry exposes the metrics registry.
func (s *Server) Registry() *obs.Registry { return s.cfg.Obs }

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown drains gracefully and is what SIGTERM maps to in flashd:
// new requests are refused (readyz flips, /read answers 503), the
// listener closes, in-flight handlers run to completion (bounded by
// ctx), then the fleet services the reads still waiting for a shard
// and stops. No accepted request is ever dropped.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	s.ladder.stop()
	var err error
	if s.ln != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	s.fleet.Close()
	return err
}

// Close stops immediately, dropping in-flight HTTP exchanges (the
// fleet still services every read it accepted).
func (s *Server) Close() error {
	if s.draining.CompareAndSwap(false, true) {
		s.ladder.stop()
	}
	var err error
	if s.ln != nil {
		err = s.httpSrv.Close()
	}
	s.fleet.Close()
	return err
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	_, _ = w.Write([]byte("ok\n"))
}

// readyzBody is the /readyz JSON: ready only when fully serving —
// not draining and the ladder at LevelNormal.
type readyzBody struct {
	Ready        bool `json:"ready"`
	DegradeLevel int  `json:"degrade_level"`
	Draining     bool `json:"draining"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	b := readyzBody{DegradeLevel: s.ladder.Level(), Draining: s.draining.Load()}
	b.Ready = !b.Draining && b.DegradeLevel == LevelNormal
	status := http.StatusOK
	if !b.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, b)
}

func (s *Server) handleRead(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "method_not_allowed"})
		return
	}
	select {
	case s.inflight <- struct{}{}:
		defer func() { <-s.inflight }()
	default:
		s.inflightRejects.Inc()
		retryAfter(w, time.Second)
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "inflight_cap"})
		return
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "draining"})
		return
	}

	buf := getWireBuf()
	defer putWireBuf(buf)
	// A read error (the 1 MiB cap included) is not final: like
	// json.Decoder, the decode accepts a value that completed before it.
	*buf, _ = readBody((*buf)[:0], http.MaxBytesReader(w, r.Body, 1<<20))
	var req ReadRequest
	if err := unmarshalReadRequest(*buf, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad_json"})
		return
	}
	t, ok := s.tenants[req.Tenant]
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown_tenant"})
		return
	}

	level := s.ladder.Level()
	if level >= LevelShed && t.cfg.Tier >= shedTier {
		t.m.shed.Inc()
		retryAfter(w, time.Second)
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "shed"})
		return
	}

	reads, errCode := normalizeReads(req, s.cfg.Fleet.Sim.Geo.PagesPerBlock)
	if errCode != "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: errCode})
		return
	}

	if ok, wait := t.bucket.Take(float64(len(reads)), start); !ok {
		t.m.throttled.Inc()
		retryAfter(w, wait)
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "throttled"})
		return
	}

	deadlineMs := req.DeadlineMs
	if deadlineMs <= 0 {
		deadlineMs = t.cfg.DeadlineMs
	}
	deadline := time.Duration(deadlineMs * float64(time.Millisecond))

	policy, forced := t.cfg.Policy, false
	if level >= LevelForceTable && policy != "table" {
		policy, forced = "table", true
		t.m.forcedTable.Inc()
	}
	maxRetries := 0
	if level >= LevelFailFast {
		maxRetries = failFastRetries
	}

	results, agg := s.fanout(r.Context(), start.Add(deadline), reads, policy, maxRetries)
	wall := time.Since(start)
	t.m.wallUS.Observe(float64(wall) / float64(time.Microsecond))

	switch {
	case wall > deadline+s.cfg.Grace || agg.deadline:
		// The deadline+grace guarantee: a reply that is already late is
		// never served as success, whatever the fleet did.
		if !agg.deadline {
			s.lateReplies.Inc()
		}
		t.m.deadline.Inc()
		writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: "deadline"})
	case agg.queueFull:
		t.m.queueFull.Inc()
		retryAfter(w, time.Second)
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "queue_full"})
	case agg.stopped:
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "draining"})
	default:
		t.serveOK(w, buf, &ReadResponse{
			Tenant: req.Tenant, Policy: policy,
			DegradeLevel: level, ForcedPolicy: forced, Results: results,
		}, agg, wall)
	}
}

// serveOK answers a served request. The body is encoded (into buf)
// before the status line is written or any success counted, so a value
// json cannot represent (a NaN) is a 500 "encode", never an empty 200.
func (t *tenant) serveOK(w http.ResponseWriter, buf *[]byte, resp *ReadResponse, agg aggFlags, wall time.Duration) {
	var err error
	if *buf, err = appendReadResponse((*buf)[:0], resp); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "encode"})
		return
	}
	if agg.uncorrectable {
		t.m.uncorrectable.Inc()
	}
	if agg.fallback {
		t.m.fallback.Inc()
	}
	if agg.failFast {
		t.m.failFast.Inc()
	}
	if wall > time.Duration(t.cfg.SLOMs*float64(time.Millisecond)) {
		t.m.sloViolations.Inc()
	}
	t.m.ok.Inc()
	writeBody(w, http.StatusOK, *buf)
}

// normalizeReads turns a request body into fleet reads, or returns an
// error code for the 400. A read spans at most maxPages pages (one
// erase block), so no single request can hold a shard's lock for long.
func normalizeReads(req ReadRequest, maxPages int) ([]ssdsim.FleetRead, string) {
	var reads []ssdsim.FleetRead
	switch {
	case req.LPN != nil && len(req.Batch) > 0:
		return nil, "lpn_and_batch"
	case req.LPN != nil:
		reads = []ssdsim.FleetRead{{LPN: *req.LPN, Pages: req.Pages}}
	case len(req.Batch) > 0:
		if len(req.Batch) > maxBatch {
			return nil, "batch_too_large"
		}
		reads = make([]ssdsim.FleetRead, len(req.Batch))
		for i, b := range req.Batch {
			reads[i] = ssdsim.FleetRead{LPN: b.LPN, Pages: b.Pages}
		}
	default:
		return nil, "empty_request"
	}
	for _, rd := range reads {
		switch {
		case rd.LPN < 0:
			return nil, "negative_lpn"
		case rd.Pages > maxPages:
			return nil, "pages_too_large"
		case rd.LPN > math.MaxInt64-int64(max(rd.Pages, 1)):
			return nil, "lpn_out_of_range"
		}
	}
	return reads, ""
}

// aggFlags summarize a fan-out's per-read errors and outcome bits.
type aggFlags struct {
	deadline, queueFull, stopped      bool
	uncorrectable, fallback, failFast bool
}

// fanout services the reads, each stamped with deadline, grouped by
// the shard that services them. The handler goroutine services the
// first shard's reads; each other shard gets one goroutine, at most
// batchFanout goroutines in all, shards past that sharing them
// round-robin. A shard services its reads one at a time anyway, so a
// second goroutine on one shard would only wait for its lock.
func (s *Server) fanout(ctx context.Context, deadline time.Time, reads []ssdsim.FleetRead, policy string, maxRetries int) ([]ReadResult, aggFlags) {
	out := make([]ReadResult, len(reads))
	if len(reads) == 1 {
		out[0] = s.one(ctx, reads[0], deadline, policy, maxRetries)
	} else {
		// slot[i] is read i's shard's index among the batch's distinct
		// shards, in order of first appearance.
		slot := make([]int, len(reads))
		var shards []int
		for i, rd := range reads {
			sh := s.fleet.ShardOf(rd.LPN)
			j := slices.Index(shards, sh)
			if j < 0 {
				j = len(shards)
				shards = append(shards, sh)
			}
			slot[i] = j
		}
		k := min(len(shards), batchFanout)
		serve := func(w int) {
			for i, j := range slot {
				if j%k == w {
					out[i] = s.one(ctx, reads[i], deadline, policy, maxRetries)
				}
			}
		}
		var wg sync.WaitGroup
		wg.Add(k - 1)
		for w := 1; w < k; w++ {
			go func() {
				defer wg.Done()
				serve(w)
			}()
		}
		serve(0)
		wg.Wait()
	}
	var agg aggFlags
	for i := range out {
		switch out[i].Error {
		case "deadline":
			agg.deadline = true
		case "queue_full":
			agg.queueFull = true
		case "stopped":
			agg.stopped = true
		}
		agg.uncorrectable = agg.uncorrectable || out[i].Uncorrectable
		agg.fallback = agg.fallback || out[i].UsedFallback
		agg.failFast = agg.failFast || out[i].FailFast
	}
	return out, agg
}

// one submits one read and folds the fleet's reply into a ReadResult.
func (s *Server) one(ctx context.Context, rd ssdsim.FleetRead, deadline time.Time, policy string, maxRetries int) ReadResult {
	rd.Policy = policy
	rd.MaxRetries = maxRetries
	rd.Deadline = deadline
	res, err := s.fleet.Submit(ctx, rd)
	rr := ReadResult{LPN: rd.LPN}
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			rr.Error = "deadline"
		case errors.Is(err, ssdsim.ErrQueueFull):
			rr.Error = "queue_full"
		case errors.Is(err, ssdsim.ErrFleetStopped):
			rr.Error = "stopped"
		default:
			rr.Error = err.Error()
		}
		return rr
	}
	rr.SimUS = res.SimUS
	rr.QueueWaitUS = float64(res.QueueWait) / float64(time.Microsecond)
	rr.Shard = res.Shard
	rr.Retries = res.Retries
	rr.AuxSenses = res.AuxSenses
	rr.UsedFallback = res.UsedFallback
	rr.Uncorrectable = res.Uncorrectable
	rr.FailFast = res.FailFast
	rr.UnmappedPages = res.UnmappedPages
	rr.Check = strconv.FormatUint(res.Check, 16)
	return rr
}

// writeJSON answers with v's JSON rendering: the cold bodies (errors,
// readyz). Like serveOK it encodes before committing the status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "encode"})
		return
	}
	writeBody(w, status, b.Bytes())
}

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// retryAfter sets the Retry-After header, rounding up to whole seconds
// with a floor of 1.
func retryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int(d / time.Second)
	if d%time.Second != 0 || secs < 1 {
		secs++
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

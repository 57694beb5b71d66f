package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sentinel3d/internal/ftl"
	"sentinel3d/internal/obs"
	"sentinel3d/internal/ssdsim"
)

// testConfig is a small 2-shard server: 98k-page device premapped to
// 4096 LPNs, default sampler pair, unlimited default tenants.
func testConfig() Config {
	sim := ssdsim.DefaultConfig()
	sim.Geo = ftl.Geometry{Channels: 4, ChipsPerChan: 1, DiesPerChip: 2,
		PlanesPerDie: 2, BlocksPerPlane: 32, PagesPerBlock: 192}
	sim.Seed = 42
	return Config{
		Fleet: ssdsim.FleetConfig{
			Sim:         sim,
			Shards:      2,
			PremapPages: 4096,
			Samplers:    DefaultSamplers(),
		},
		Tenants: []TenantConfig{
			{Name: "gold", Tier: 0, SLOMs: 20, Policy: "sentinel", DeadlineMs: 1000},
			{Name: "bronze", Tier: 2, SLOMs: 200, Policy: "table", DeadlineMs: 1000},
		},
	}
}

// startServer builds and starts a server on a free port, registering
// cleanup.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// postRead issues one /read and decodes the body into out (may be nil).
func postRead(t *testing.T, base string, body string, out any) (int, http.Header) {
	t.Helper()
	resp, err := http.Post(base+"/read", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("status %d body %q: %v", resp.StatusCode, data, err)
		}
	}
	return resp.StatusCode, resp.Header
}

func TestServerReadSingleAndBatch(t *testing.T) {
	s := startServer(t, testConfig())
	base := "http://" + s.Addr()

	var single ReadResponse
	if code, _ := postRead(t, base, `{"tenant":"gold","lpn":123}`, &single); code != 200 {
		t.Fatalf("single read: status %d", code)
	}
	if len(single.Results) != 1 || single.Results[0].LPN != 123 ||
		single.Results[0].Check == "" || single.Policy != "sentinel" {
		t.Fatalf("single read response: %+v", single)
	}

	var batch ReadResponse
	if code, _ := postRead(t, base,
		`{"tenant":"bronze","batch":[{"lpn":1},{"lpn":70,"pages":2},{"lpn":999999}]}`,
		&batch); code != 200 {
		t.Fatalf("batch read: status %d", code)
	}
	if len(batch.Results) != 3 || batch.Policy != "table" {
		t.Fatalf("batch response: %+v", batch)
	}
	if batch.Results[2].UnmappedPages != 1 {
		t.Fatalf("LPN past premap not reported unmapped: %+v", batch.Results[2])
	}

	// The same read twice: byte-equal deterministic outcome.
	var again ReadResponse
	postRead(t, base, `{"tenant":"gold","lpn":123}`, &again)
	if again.Results[0].Check != single.Results[0].Check ||
		again.Results[0].SimUS != single.Results[0].SimUS {
		t.Fatalf("same read diverged: %+v vs %+v", again.Results[0], single.Results[0])
	}
}

// TestServerCloseWithoutStart: Close and Shutdown return at once on a
// server that New built but Start never ran, and stop its fleet.
func TestServerCloseWithoutStart(t *testing.T) {
	for _, name := range []string{"Close", "Shutdown"} {
		s, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			if name == "Close" {
				done <- s.Close()
			} else {
				done <- s.Shutdown(context.Background())
			}
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s on a never-started server still blocked after 2s", name)
		}
		read := ssdsim.FleetRead{LPN: 1, Policy: "table"}
		if _, err := s.fleet.Submit(context.Background(), read); !errors.Is(err, ssdsim.ErrFleetStopped) {
			t.Fatalf("%s: Submit after it = %v, want ErrFleetStopped", name, err)
		}
	}
}

// TestReadResultQueueWaitSubMicrosecond: a read's QueueWaitUS keeps the
// fractional microseconds of its shard-lock wait. Over 1000 uncontended
// reads the QueueWaitUS values sum to more than zero, and to the sum of
// the fleet.queue_wait_us histogram up to its fixed-point rounding.
func TestReadResultQueueWaitSubMicrosecond(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 1000
	var sum float64
	for i := 0; i < n; i++ {
		rr := s.one(context.Background(), ssdsim.FleetRead{LPN: int64(i)}, time.Time{}, "table", 0)
		if rr.Error != "" {
			t.Fatalf("read %d: %s", i, rr.Error)
		}
		sum += rr.QueueWaitUS
	}
	hist := -1.0
	for _, h := range s.Registry().Snapshot().Hists {
		if h.Name == "fleet.queue_wait_us" {
			hist = h.Hist.Sum()
		}
	}
	if sum <= 0 || math.Abs(sum-hist) > n*1e-6 {
		t.Fatalf("QueueWaitUS sum %v µs, fleet.queue_wait_us sum %v µs; want equal and > 0", sum, hist)
	}
}

// serveReads answers n single-page /read requests for tenant through
// the server's handler, one LPN each, and fails on any non-200 reply.
func serveReads(t *testing.T, s *Server, tenant string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		body := fmt.Sprintf(`{"tenant":%q,"lpn":%d}`, tenant, i)
		rec := httptest.NewRecorder()
		s.handleRead(rec, httptest.NewRequest(http.MethodPost, "/read", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("read %d: status %d body %q", i, rec.Code, rec.Body)
		}
	}
}

// TestSnapshotDeterministicAcrossServers: two fresh servers serving the
// same reads render the same deterministic snapshot. The wall-clock
// histograms (fleet.queue_wait_us, serve.tenant.*.wall_us) and counters
// (serve.tenant.*.slo_violations and .deadline, serve.late_replies)
// stay in the full snapshot and out of the deterministic view.
func TestSnapshotDeterministicAcrossServers(t *testing.T) {
	render := func() (full, det string) {
		s, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		serveReads(t, s, "gold", 100)
		serveReads(t, s, "bronze", 100)
		snap := s.Registry().Snapshot()
		return promText(snap), promText(snap.Deterministic())
	}
	full, a := render()
	_, b := render()
	if a != b {
		t.Fatalf("deterministic snapshots differ:\n%s\nvs\n%s", a, b)
	}
	for _, name := range []string{"sentinel3d_fleet_queue_wait_us", "sentinel3d_serve_tenant_gold_wall_us",
		"sentinel3d_serve_tenant_gold_slo_violations", "sentinel3d_serve_tenant_bronze_deadline",
		"sentinel3d_serve_late_replies"} {
		if !strings.Contains(full, name) || strings.Contains(a, name) {
			t.Errorf("%s: want it in the full snapshot only", name)
		}
	}
}

// TestTenantWallHistSubMicrosecond: the tenant wall-clock histogram
// keeps the fractional microseconds of each request. A sum, minimum and
// maximum that are all whole microseconds mean the samples were
// truncated (each of them alone is whole about once in a thousand runs).
func TestTenantWallHistSubMicrosecond(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	serveReads(t, s, "gold", 50)
	for _, h := range s.Registry().Snapshot().Hists {
		if h.Name != "serve.tenant.gold.wall_us" {
			continue
		}
		whole := func(v float64) bool { return v == math.Trunc(v) }
		if h.Hist.Count() != 50 || h.Hist.Sum() <= 0 ||
			whole(h.Hist.Sum()) && whole(h.Hist.Min()) && whole(h.Hist.Max()) {
			t.Fatalf("wall_us count %d sum %v min %v max %v: want 50 samples with sub-µs parts",
				h.Hist.Count(), h.Hist.Sum(), h.Hist.Min(), h.Hist.Max())
		}
		return
	}
	t.Fatal("no serve.tenant.gold.wall_us histogram")
}

func TestServerRejections(t *testing.T) {
	s := startServer(t, testConfig())
	base := "http://" + s.Addr()
	var tooLarge strings.Builder
	tooLarge.WriteString(`{"tenant":"gold","batch":[`)
	for i := 0; i <= maxBatch; i++ {
		if i > 0 {
			tooLarge.WriteByte(',')
		}
		fmt.Fprintf(&tooLarge, `{"lpn":%d}`, i+1)
	}
	tooLarge.WriteString(`]}`)

	cases := []struct {
		body string
		want int
	}{
		{`{"tenant":"nobody","lpn":1}`, http.StatusNotFound},
		{`{"tenant":"gold"}`, http.StatusBadRequest},
		{`{"tenant":"gold","lpn":-4}`, http.StatusBadRequest},
		{`{"tenant":"gold","lpn":1,"batch":[{"lpn":2}]}`, http.StatusBadRequest},
		{tooLarge.String(), http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if code, _ := postRead(t, base, c.body, nil); code != c.want {
			t.Errorf("body %q: status %d, want %d", c.body, code, c.want)
		}
	}
	resp, err := http.Get(base + "/read")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /read: status %d", resp.StatusCode)
	}
}

// TestServerRejectsUnboundedReads pins the per-read page bound: a read
// longer than one erase block, or one whose LPN range overflows int64,
// is a 400 before it costs a token or reaches a shard queue.
func TestServerRejectsUnboundedReads(t *testing.T) {
	cfg := testConfig()
	s := startServer(t, cfg)
	base := "http://" + s.Addr()
	ppb := cfg.Fleet.Sim.Geo.PagesPerBlock
	cases := []struct {
		body, want string
	}{
		{`{"tenant":"gold","lpn":0,"pages":50000000}`, "pages_too_large"},
		{fmt.Sprintf(`{"tenant":"gold","lpn":0,"pages":%d}`, ppb+1), "pages_too_large"},
		{fmt.Sprintf(`{"tenant":"gold","batch":[{"lpn":1},{"lpn":2,"pages":%d}]}`, ppb+1), "pages_too_large"},
		{`{"tenant":"gold","lpn":9223372036854775807}`, "lpn_out_of_range"},
		{`{"tenant":"gold","batch":[{"lpn":9223372036854775800,"pages":8}]}`, "lpn_out_of_range"},
	}
	for _, c := range cases {
		resp, err := http.Post(base+"/read", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var body errorBody
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || body.Error != c.want {
			t.Errorf("body %q: status %d error %q (%v), want 400 %q",
				c.body, resp.StatusCode, body.Error, err, c.want)
		}
	}
	// A read of exactly one block is still served.
	if code, _ := postRead(t, base, fmt.Sprintf(`{"tenant":"gold","lpn":0,"pages":%d}`, ppb), nil); code != http.StatusOK {
		t.Errorf("one-block read: status %d, want 200", code)
	}
}

func TestServerThrottleAndRetryAfter(t *testing.T) {
	cfg := testConfig()
	cfg.Tenants = append(cfg.Tenants,
		TenantConfig{Name: "trickle", Tier: 1, RatePerSec: 0.5, Burst: 1, SLOMs: 50})
	s := startServer(t, cfg)
	base := "http://" + s.Addr()

	if code, _ := postRead(t, base, `{"tenant":"trickle","lpn":1}`, nil); code != 200 {
		t.Fatalf("first request: status %d", code)
	}
	code, hdr := postRead(t, base, `{"tenant":"trickle","lpn":2}`, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestServerEndpoints(t *testing.T) {
	s := startServer(t, testConfig())
	base := "http://" + s.Addr()
	for path, want := range map[string]string{
		"/healthz": "ok",
		"/metrics": "fleet_queue_rejects",
		"/readyz":  `"ready":true`,
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("%s: body %q missing %q", path, data, want)
		}
	}
}

func TestServerShutdownDrains(t *testing.T) {
	cfg := testConfig()
	s := startServer(t, cfg)
	base := "http://" + s.Addr()
	if code, _ := postRead(t, base, `{"tenant":"gold","lpn":5}`, nil); code != 200 {
		t.Fatal("server not serving before drain")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if !s.draining.Load() {
		t.Fatal("not draining after Shutdown")
	}
	if _, err := http.Post(base+"/read", "application/json",
		strings.NewReader(`{"tenant":"gold","lpn":5}`)); err == nil {
		t.Fatal("listener still accepting after drain")
	}
	// Idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

func TestServerConfigValidation(t *testing.T) {
	bad := testConfig()
	delete(bad.Fleet.Samplers, "table")
	if _, err := New(bad); err == nil {
		t.Fatal("missing table sampler accepted")
	}
	bad = testConfig()
	bad.Tenants = append(bad.Tenants, bad.Tenants[0])
	if _, err := New(bad); err == nil {
		t.Fatal("duplicate tenant accepted")
	}
	bad = testConfig()
	bad.Tenants[0].Policy = "nope"
	if _, err := New(bad); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestTokenBucket(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewTokenBucket(10, 2)
	if ok, _ := b.Take(2, now); !ok {
		t.Fatal("full bucket refused its burst")
	}
	ok, wait := b.Take(1, now)
	if ok {
		t.Fatal("empty bucket admitted")
	}
	if wait <= 0 || wait > 150*time.Millisecond {
		t.Fatalf("retry-after %v, want ~100ms", wait)
	}
	if ok, _ := b.Take(1, now.Add(200*time.Millisecond)); !ok {
		t.Fatal("refilled bucket refused")
	}
	var nb *TokenBucket
	if ok, _ := nb.Take(1e9, now); !ok {
		t.Fatal("nil bucket must be unlimited")
	}
}

func TestLadderHysteresis(t *testing.T) {
	pressure := 0.0
	l := newLadder(func() float64 { return pressure }, nil)
	step := func(p float64, n int) {
		pressure = p
		for i := 0; i < n; i++ {
			l.tick()
		}
	}
	step(0.9, 1)
	if l.Level() != LevelNormal {
		t.Fatal("one hot tick must not engage")
	}
	step(0.9, 1)
	if l.Level() != LevelShed {
		t.Fatalf("level %d after ladderUpTicks hot ticks, want shed", l.Level())
	}
	step(0.5, 1) // middle band resets streaks
	step(0.9, 2)
	if l.Level() != LevelForceTable {
		t.Fatalf("level %d, want force-table", l.Level())
	}
	step(0.9, 2)
	if l.Level() != LevelFailFast {
		t.Fatalf("level %d, want fail-fast", l.Level())
	}
	step(0.9, 10)
	if l.Level() != LevelFailFast {
		t.Fatal("ladder climbed past its top")
	}
	step(0.1, ladderDownTicks-1)
	if l.Level() != LevelFailFast {
		t.Fatal("released before ladderDownTicks")
	}
	step(0.1, 1)
	if l.Level() != LevelForceTable {
		t.Fatalf("level %d after ladderDownTicks cool ticks, want force-table", l.Level())
	}
	step(0.1, 2*ladderDownTicks)
	if l.Level() != LevelNormal {
		t.Fatalf("level %d, want normal", l.Level())
	}
	trans := l.Transitions()
	want := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 2}, {2, 1}, {1, 0}}
	if len(trans) != len(want) {
		t.Fatalf("transitions %v, want %v", trans, want)
	}
	for i, tr := range trans {
		if tr.From != want[i][0] || tr.To != want[i][1] {
			t.Fatalf("transition %d: %d->%d, want %d->%d",
				i, tr.From, tr.To, want[i][0], want[i][1])
		}
	}
}

func TestParsePercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.95, 10}, {0.99, 10}, {0, 1}, {1, 10}} {
		if got := Percentile(sorted, c.q); got != c.want {
			t.Errorf("P%v = %v, want %v", c.q, got, c.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty sample must yield 0")
	}
}

// promText is the snapshot's Prometheus text.
func promText(s *obs.Snapshot) string {
	var b strings.Builder
	_ = s.WritePrometheus(&b) // strings.Builder writes cannot fail
	return b.String()
}

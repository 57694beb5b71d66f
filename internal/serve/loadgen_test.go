package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// benchTestTenants is a small unlimited-rate closed-loop load.
func benchTestTenants() []BenchTenant {
	return []BenchTenant{
		{Name: "gold", Workers: 4, Requests: 300, SLOMs: 50},
		{Name: "bronze", Workers: 2, Requests: 150, BatchSize: 3, SLOMs: 200},
	}
}

// runClosedOnce brings up a fresh server, runs a fixed-seed closed
// loop against it, and returns the deterministic report rendering.
func runClosedOnce(t *testing.T, seed uint64) ([]byte, *BenchReport) {
	t.Helper()
	s := startServer(t, testConfig())
	rep, err := RunBench(context.Background(), BenchConfig{
		BaseURL: "http://" + s.Addr(),
		Seed:    seed,
		MaxLPN:  4096,
		Tenants: benchTestTenants(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Deterministic().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rep
}

// TestClosedLoopReportByteIdentical is the flashbench reproducibility
// contract: two closed-loop runs with the same seed against two fresh
// servers render byte-identical deterministic reports.
func TestClosedLoopReportByteIdentical(t *testing.T) {
	a, repA := runClosedOnce(t, 7)
	b, _ := runClosedOnce(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatalf("deterministic reports differ:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
	c, _ := runClosedOnce(t, 8)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical reports")
	}
	if err := repA.AccountingErr(); err != nil {
		t.Fatal(err)
	}
	for _, tr := range repA.Tenants {
		if tr.OK != tr.Requests {
			t.Fatalf("tenant %s: %d/%d OK in an unloaded closed loop (%+v)",
				tr.Tenant, tr.OK, tr.Requests, tr)
		}
		if tr.Check == "0" || tr.Check == "" {
			t.Fatalf("tenant %s: empty outcome checksum", tr.Tenant)
		}
		if tr.SimP50US <= 0 || tr.SimP99US < tr.SimP50US {
			t.Fatalf("tenant %s: bad sim percentiles %+v", tr.Tenant, tr)
		}
	}
	// gold runs the sentinel policy, bronze the table: bronze must pay
	// more retries per read, gold more aux senses.
	var gold, bronze TenantReport
	for _, tr := range repA.Tenants {
		switch tr.Tenant {
		case "gold":
			gold = tr
		case "bronze":
			bronze = tr
		}
	}
	goldReads := float64(gold.Requests)
	bronzeReads := float64(bronze.Requests * 3) // batch of 3
	if float64(bronze.Retries)/bronzeReads <= float64(gold.Retries)/goldReads {
		t.Fatalf("table tenant not slower: bronze %d/%v retries vs gold %d/%v",
			bronze.Retries, bronzeReads, gold.Retries, goldReads)
	}
	if gold.AuxSenses == 0 || bronze.AuxSenses != 0 {
		t.Fatalf("aux senses: gold %d, bronze %d", gold.AuxSenses, bronze.AuxSenses)
	}
}

// TestOpenLoopAccounting runs a short ramped open loop and checks the
// accounting identity (every arrival lands in exactly one bucket).
func TestOpenLoopAccounting(t *testing.T) {
	s := startServer(t, testConfig())
	rep, err := RunBench(context.Background(), BenchConfig{
		BaseURL:  "http://" + s.Addr(),
		Seed:     3,
		MaxLPN:   4096,
		OpenLoop: true,
		Duration: 400 * time.Millisecond,
		Phases: []LoadPhase{
			{Duration: 200 * time.Millisecond, RateScale: 0.5},
			{Duration: 200 * time.Millisecond, RateScale: 2},
		},
		Tenants: []BenchTenant{{Name: "gold", RateRPS: 500, SLOMs: 50}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.AccountingErr(); err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "open" || len(rep.Tenants) != 1 || rep.Tenants[0].Requests == 0 {
		t.Fatalf("open-loop report: %+v", rep)
	}
}

// TestBenchCancelReturnsPartialReport is the SIGINT path: cancelling
// mid-run still yields a consistent (partial) report.
func TestBenchCancelReturnsPartialReport(t *testing.T) {
	s := startServer(t, testConfig())
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	rep, err := RunBench(ctx, BenchConfig{
		BaseURL: "http://" + s.Addr(),
		Seed:    1,
		MaxLPN:  4096,
		Tenants: []BenchTenant{{Name: "gold", Workers: 2, Requests: 1 << 30}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.AccountingErr(); err != nil {
		t.Fatal(err)
	}
}

// TestBenchClassifies429ByCode runs the closed loop against a stub that
// rejects every read with 429 and one error code: a bounce off a full
// fleet queue must count as QueueFull, a token-bucket or in-flight-cap
// rejection as Throttled.
func TestBenchClassifies429ByCode(t *testing.T) {
	for _, code := range []string{"queue_full", "throttled", "inflight_cap"} {
		stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: code})
		}))
		rep, err := RunBench(context.Background(), BenchConfig{
			BaseURL: stub.URL,
			Seed:    1,
			MaxLPN:  4096,
			Tenants: []BenchTenant{{Name: "gold", Workers: 2, Requests: 10}},
		})
		stub.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.AccountingErr(); err != nil {
			t.Fatal(err)
		}
		tr := rep.Tenants[0]
		want := TenantReport{Requests: 10, Throttled: 10}
		if code == "queue_full" {
			want = TenantReport{Requests: 10, QueueFull: 10}
		}
		if tr.Requests != want.Requests || tr.QueueFull != want.QueueFull || tr.Throttled != want.Throttled {
			t.Errorf("%s: requests %d, queue_full %d, throttled %d; want %d, %d, %d", code,
				tr.Requests, tr.QueueFull, tr.Throttled, want.Requests, want.QueueFull, want.Throttled)
		}
	}
}

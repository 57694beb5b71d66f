package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestServeEndpoints: the debug server exposes the Prometheus
// snapshot, the slow-read JSONL, expvar, and the pprof index.
func TestServeEndpoints(t *testing.T) {
	r := NewRegistry(1)
	r.KeepSlowest(2)
	set := r.Set(0)
	set.Counter("retry.reads", "chip-level reads").Add(12)
	set.Hist("retry.latency_us", "read service time").Observe(63.5)
	set.SlowRing().Admit(SlowRead{Seq: 1, TotalUS: 63.5})

	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"# TYPE sentinel3d_retry_reads counter",
		"sentinel3d_retry_reads 12",
		"# TYPE sentinel3d_retry_latency_us summary",
		`sentinel3d_retry_latency_us{quantile="0.99"}`,
		"sentinel3d_retry_latency_us_count 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	if slow := get("/slow"); !strings.Contains(slow, `"total_us":63.5`) {
		t.Errorf("/slow missing record: %s", slow)
	}
	if vars := get("/debug/vars"); !strings.Contains(vars, "memstats") {
		t.Error("/debug/vars missing memstats")
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Error("pprof index missing goroutine profile")
	}
}

// TestServeHardening: the endpoint carries a ReadHeaderTimeout (no
// slowloris).
func TestServeHardening(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewRegistry(1))
	if err != nil {
		t.Fatal(err)
	}
	if srv.srv.ReadHeaderTimeout <= 0 {
		t.Fatal("debug server has no ReadHeaderTimeout")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

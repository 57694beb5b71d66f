package obs

import (
	"math"
	"strings"
	"sync"
	"testing"

	"sentinel3d/internal/mathx"
	"sentinel3d/internal/parallel"
)

// TestNilIsNoOp: the whole nil chain — registry, set, every handle —
// must be callable and inert, because that is the disabled fast path
// every instrumented component takes.
func TestNilIsNoOp(t *testing.T) {
	var r *Registry
	if r.Shards() != 0 {
		t.Error("nil registry has shards")
	}
	r.KeepSlowest(4)
	s := r.Set(0)
	if s != nil {
		t.Fatal("nil registry returned non-nil set")
	}
	c := s.Counter("x", "")
	g := s.Gauge("x", "")
	h := s.Hist("x", "")
	ring := s.SlowRing()
	if c != nil || g != nil || h != nil || ring != nil {
		t.Fatal("nil set returned non-nil handles")
	}
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter has value")
	}
	g.Set(3)
	if v, ok := g.Value(); v != 0 || ok {
		t.Error("nil gauge has value")
	}
	h.Observe(1)
	h.Flush(&mathx.LogHist{}, nil)
	ring.Admit(SlowRead{TotalUS: 1})
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Hists) != 0 || snap.Render() != "" {
		t.Error("nil registry snapshot not empty")
	}
}

// TestNoOpAllocations: the disabled path must be allocation-free —
// this is the obs-side half of the Sense/ReadPage 0 allocs/op
// acceptance criterion.
func TestNoOpAllocations(t *testing.T) {
	var r *Registry
	s := r.Set(0)
	c := s.Counter("x", "")
	h := s.Hist("x", "")
	ring := s.SlowRing()
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		h.Observe(17.5)
		ring.Admit(SlowRead{TotalUS: 99})
	}); n != 0 {
		t.Fatalf("no-op sink allocates %v allocs/op, want 0", n)
	}
	// The enabled counter/histogram path is also allocation-free (the
	// ring allocates only on retention, by design).
	reg := NewRegistry(1)
	ec := reg.Set(0).Counter("y", "")
	eh := reg.Set(0).Hist("z", "")
	if n := testing.AllocsPerRun(1000, func() {
		ec.Inc()
		eh.Observe(17.5)
	}); n != 0 {
		t.Fatalf("enabled sink allocates %v allocs/op, want 0", n)
	}
}

// TestRegistryBasics: handles are per-shard cells of one family;
// snapshots merge counters and histograms and keep gauges per shard.
func TestRegistryBasics(t *testing.T) {
	r := NewRegistry(2)
	if r.Shards() != 2 {
		t.Fatal("shards")
	}
	a, b := r.Set(0), r.Set(1)
	a.Counter("reads", "total reads").Add(3)
	b.Counter("reads", "total reads").Add(4)
	a.Gauge("rate", "req/s").Set(100)
	b.Gauge("rate", "req/s").Set(200)
	a.Hist("lat", "µs").Observe(10)
	b.Hist("lat", "µs").Observe(1000)

	snap := r.Snapshot()
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 7 {
		t.Fatalf("counters %+v", snap.Counters)
	}
	if len(snap.Gauges) != 2 || snap.Gauges[0].Value != 100 || snap.Gauges[1].Value != 200 {
		t.Fatalf("gauges %+v", snap.Gauges)
	}
	if len(snap.Hists) != 1 {
		t.Fatalf("hists %+v", snap.Hists)
	}
	lh := snap.Hists[0].Hist
	if lh.Count() != 2 || lh.Min() != 10 || lh.Max() != 1000 {
		t.Fatalf("merged hist count=%d min=%v max=%v", lh.Count(), lh.Min(), lh.Max())
	}
	if math.Abs(lh.Sum()-1010) > 1e-5 {
		t.Fatalf("merged sum %v", lh.Sum())
	}
	// An unset gauge cell is omitted.
	r.Set(0).Gauge("other", "")
	if got := len(r.Snapshot().Gauges); got != 2 {
		t.Fatalf("unset gauge leaked into snapshot (%d gauges)", got)
	}
	// Deterministic() strips gauges and nothing else.
	det := snap.Deterministic()
	if det.Gauges != nil || len(det.Counters) != 1 || len(det.Hists) != 1 {
		t.Fatalf("deterministic view %+v", det)
	}
	// Same family twice returns the same cell; different kind panics.
	if a.Counter("reads", "") != r.Set(0).Counter("reads", "") {
		t.Error("family cell not stable")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("kind clash did not panic")
			}
		}()
		a.Gauge("reads", "")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range shard did not panic")
			}
		}()
		r.Set(5)
	}()
}

// TestHistObserveMatchesLogHist: the atomic cell must reconstruct the
// exact LogHist a serial accumulation produces (counts, min/max, and
// the sum to fixed-point resolution).
func TestHistObserveMatchesLogHist(t *testing.T) {
	r := NewRegistry(1)
	h := r.Set(0).Hist("x", "")
	var want mathx.LogHist
	rng := mathx.NewRand(5)
	for i := 0; i < 20000; i++ {
		v := math.Exp(rng.NormFloat64()*2 + 4)
		if i%13 == 0 {
			v = 0
		}
		h.Observe(v)
		want.Add(v)
	}
	got := r.Snapshot().Hists[0].Hist
	if got.Count() != want.Count() || got.ZeroCount() != want.ZeroCount() ||
		got.Min() != want.Min() || got.Max() != want.Max() {
		t.Fatalf("cell diverged: count %d/%d zero %d/%d", got.Count(), want.Count(),
			got.ZeroCount(), want.ZeroCount())
	}
	if math.Abs(got.Sum()-want.Sum()) > float64(want.Count())/histSumScale {
		t.Fatalf("sum %v vs %v beyond fixed-point tolerance", got.Sum(), want.Sum())
	}
	for _, q := range []float64{0.5, 0.95, 0.99, 1} {
		if got.Quantile(q) != want.Quantile(q) {
			t.Fatalf("q=%v: %v != %v", q, got.Quantile(q), want.Quantile(q))
		}
	}
}

// TestHistFlushMatchesObserve: batch-and-flush publication (the replay
// hot path) must land the same state as direct observation, however
// the batches are cut.
func TestHistFlushMatchesObserve(t *testing.T) {
	r := NewRegistry(1)
	direct := r.Set(0).Hist("direct", "")
	flushed := r.Set(0).Hist("flushed", "")
	var cur, prev mathx.LogHist
	rng := mathx.NewRand(9)
	for i := 0; i < 5000; i++ {
		v := 50 + rng.Float64()*1e4
		direct.Observe(v)
		cur.Add(v)
		if i%257 == 0 {
			flushed.Flush(&cur, &prev)
			prev = cur
		}
	}
	flushed.Flush(&cur, &prev)
	snap := r.Snapshot()
	d, f := snap.Hists[0].Hist, snap.Hists[1].Hist
	if d.Count() != f.Count() || d.Min() != f.Min() || d.Max() != f.Max() {
		t.Fatalf("flushed count=%d min=%v max=%v, direct count=%d min=%v max=%v",
			f.Count(), f.Min(), f.Max(), d.Count(), d.Min(), d.Max())
	}
	if math.Abs(d.Sum()-f.Sum()) > float64(d.Count())/histSumScale {
		t.Fatalf("sums diverged: %v vs %v", d.Sum(), f.Sum())
	}
	for _, q := range []float64{0.5, 0.99} {
		if d.Quantile(q) != f.Quantile(q) {
			t.Fatalf("q=%v diverged", q)
		}
	}
}

// TestConcurrentDeterminism: hammer one registry from many goroutines
// (fixed per-goroutine workloads, worker count varying run to run) and
// require byte-identical deterministic renderings. This is the
// race-job coverage for concurrent updates + snapshots: a live
// snapshot goroutine scrapes mid-run, its result unused.
func TestConcurrentDeterminism(t *testing.T) {
	render := func(workers int) string {
		r := NewRegistry(4)
		r.KeepSlowest(8)
		stop := make(chan struct{})
		var scraper sync.WaitGroup
		scraper.Add(1)
		go func() { // concurrent scrapes must be safe mid-run
			defer scraper.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = r.Snapshot().Render()
				}
			}
		}()
		prev := parallel.SetWorkers(workers)
		parallel.ForEach(4, func(shard int) {
			set := r.Set(shard)
			c := set.Counter("ops", "")
			h := set.Hist("lat_us", "")
			ring := set.SlowRing()
			rng := mathx.NewRand(uint64(shard) + 1)
			var cur, prevH mathx.LogHist
			for i := 0; i < 3000; i++ {
				c.Inc()
				v := 10 + rng.Float64()*1e5
				cur.Add(v)
				ring.Admit(SlowRead{Seq: int64(i), TotalUS: v})
				if i%500 == 0 {
					h.Flush(&cur, &prevH)
					prevH = cur
				}
			}
			h.Flush(&cur, &prevH)
			set.Gauge("rate", "").Set(float64(shard) * 123.4) // stripped below
		})
		parallel.SetWorkers(prev)
		close(stop)
		scraper.Wait()
		snap := r.Snapshot().Deterministic()
		var slow strings.Builder
		if err := snap.WriteSlowJSONL(&slow); err != nil {
			t.Fatal(err)
		}
		return snap.Render() + slow.String()
	}
	base := render(1)
	if base == "" || !strings.Contains(base, "sentinel3d_ops 12000") {
		t.Fatalf("unexpected rendering:\n%s", base)
	}
	if strings.Contains(base, "rate") {
		t.Fatal("gauge survived Deterministic()")
	}
	for _, w := range []int{2, 4, 8} {
		if got := render(w); got != base {
			t.Fatalf("rendering diverged at %d workers:\n got:\n%s\nwant:\n%s", w, got, base)
		}
	}
}

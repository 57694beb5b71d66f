// Package obs is the repo's observability layer: a registry of atomic
// counters, gauges and mathx.LogHist-backed histograms, sharded per
// replay shard, plus a slowest-N read trace ring and Prometheus-style
// exposition (see snapshot.go and http.go).
//
// Two properties shape the design:
//
// Free when off. Every handle type (*Counter, *Gauge, *Hist, *SlowRing)
// is nil-safe: a nil Registry yields nil Sets, nil Sets yield nil
// handles, and every method on a nil handle is a no-op. Instrumented
// code therefore carries one pointer and pays one predictable branch
// when observability is disabled — no interface dispatch, no
// allocation (see the AllocsPerRun tests).
//
// Deterministic when on. Metrics must not perturb the simulator's
// byte-identical-at-any-worker-count contract, and must themselves be
// byte-identical. Counters are commutative integer adds. Histogram
// cells live on the exact mathx.LogHist bucket grid with an integer
// fixed-point sum, so concurrent updates commute; per-shard cells are
// reconstructed and merged in fixed shard order at snapshot time.
// Gauges carry wall-clock rates, wall-clock histograms (WallHist) time
// requests on the host, and wall-clock counters (WallCounter) count
// events decided by host time; Snapshot.Deterministic strips all three.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"sentinel3d/internal/mathx"
)

// Registry holds the metric families of one run, with one cell per
// shard per family. Handles are created through per-shard Sets; all
// methods are safe for concurrent use.
type Registry struct {
	shards int

	mu   sync.Mutex
	fams map[string]*family

	slowN int
	rings []*SlowRing
}

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHist
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one named metric with a cell per shard. wall marks one
// that depends on host time (Set.WallCounter, Set.WallHist).
type family struct {
	name, help string
	kind       kind
	wall       bool
	counters   []*Counter
	gauges     []*Gauge
	hists      []*Hist
}

// NewRegistry builds a registry with the given shard count (values
// below 1 are treated as 1). Use shard count = replay shard count so
// each shard's instrumentation writes its own cells.
func NewRegistry(shards int) *Registry {
	if shards < 1 {
		shards = 1
	}
	return &Registry{shards: shards, fams: make(map[string]*family)}
}

// Shards returns the registry's shard count.
func (r *Registry) Shards() int {
	if r == nil {
		return 0
	}
	return r.shards
}

// KeepSlowest enables the slow-read trace: each shard keeps its n
// slowest reads, and Snapshot merges them into the overall slowest n.
// Call before handing out Sets; n < 1 disables the trace.
func (r *Registry) KeepSlowest(n int) {
	if r == nil || n < 1 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.slowN = n
	r.rings = make([]*SlowRing, r.shards)
	for s := range r.rings {
		r.rings[s] = newSlowRing(s, n)
	}
}

// Set returns shard s's handle factory. A nil registry returns a nil
// Set, which in turn hands out nil (no-op) handles.
func (r *Registry) Set(s int) *Set {
	if r == nil {
		return nil
	}
	if s < 0 || s >= r.shards {
		panic(fmt.Sprintf("obs: shard %d outside [0,%d)", s, r.shards))
	}
	return &Set{r: r, shard: s}
}

// family returns the named family, creating it (with cells for every
// shard) on first use. Re-registering a name under a different kind, or
// with and without wall, is a wiring bug and panics.
func (r *Registry) family(name, help string, k kind, wall bool) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if ok {
		if f.kind != k || f.wall != wall {
			panic(fmt.Sprintf("obs: metric %q registered as %v (wall %v), requested as %v (wall %v)",
				name, f.kind, f.wall, k, wall))
		}
		return f
	}
	f = &family{name: name, help: help, kind: k, wall: wall}
	switch k {
	case kindCounter:
		f.counters = make([]*Counter, r.shards)
		for i := range f.counters {
			f.counters[i] = &Counter{}
		}
	case kindGauge:
		f.gauges = make([]*Gauge, r.shards)
		for i := range f.gauges {
			f.gauges[i] = &Gauge{}
		}
	case kindHist:
		f.hists = make([]*Hist, r.shards)
		for i := range f.hists {
			f.hists[i] = newHist()
		}
	}
	r.fams[name] = f
	return f
}

// sortedFamilies returns the families sorted by name, so snapshots and
// renderings are order-independent of registration order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// Set creates handles bound to one shard's cells.
type Set struct {
	r     *Registry
	shard int
}

// Counter returns this shard's cell of the named counter.
func (s *Set) Counter(name, help string) *Counter {
	if s == nil {
		return nil
	}
	return s.r.family(name, help, kindCounter, false).counters[s.shard]
}

// WallCounter is Counter for events decided by wall-clock time, like
// WallHist kept by snapshots and stripped by Snapshot.Deterministic.
func (s *Set) WallCounter(name, help string) *Counter {
	if s == nil {
		return nil
	}
	return s.r.family(name, help, kindCounter, true).counters[s.shard]
}

// Gauge returns this shard's cell of the named gauge.
func (s *Set) Gauge(name, help string) *Gauge {
	if s == nil {
		return nil
	}
	return s.r.family(name, help, kindGauge, false).gauges[s.shard]
}

// Hist returns this shard's cell of the named histogram.
func (s *Set) Hist(name, help string) *Hist {
	if s == nil {
		return nil
	}
	return s.r.family(name, help, kindHist, false).hists[s.shard]
}

// WallHist is Hist for wall-clock samples, which depend on the host and
// the schedule: snapshots carry it, and Snapshot.Deterministic strips it.
func (s *Set) WallHist(name, help string) *Hist {
	if s == nil {
		return nil
	}
	return s.r.family(name, help, kindHist, true).hists[s.shard]
}

// SlowRing returns this shard's slow-read ring, or nil when the trace
// is disabled (see Registry.KeepSlowest).
func (s *Set) SlowRing() *SlowRing {
	if s == nil {
		return nil
	}
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	if s.r.rings == nil {
		return nil
	}
	return s.r.rings[s.shard]
}

// ---------------------------------------------------------------------------
// Counter

// Counter is a monotone atomic counter cell. The zero value is ready;
// a nil counter is a no-op.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil || n == 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the cell's current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// ---------------------------------------------------------------------------
// Gauge

// Gauge is a last-write-wins float cell for wall-clock-derived values
// (per-shard req/s). Gauges are excluded from deterministic snapshots.
type Gauge struct {
	bits atomic.Uint64
	set  atomic.Bool
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
	g.set.Store(true)
}

// Value returns the stored value and whether Set was ever called.
func (g *Gauge) Value() (float64, bool) {
	if g == nil {
		return 0, false
	}
	return math.Float64frombits(g.bits.Load()), g.set.Load()
}

// ---------------------------------------------------------------------------
// Hist

// histSumScale is the fixed-point scale of a histogram cell's sum:
// integer micro-unit adds commute, so the accumulated sum is identical
// whatever order concurrent observers run in — the float sum a naive
// port would keep is not. At 2^-20 resolution a µs-valued histogram
// resolves the sum to picoseconds while leaving 2^43 µs of headroom.
const histSumScale = 1 << 20

func sumFixed(v float64) int64 { return int64(math.Round(v * histSumScale)) }

// Hist is one shard's histogram cell: atomic bucket counts on the
// mathx.LogHist grid, a fixed-point atomic sum, and CAS-maintained
// min/max. Snapshots reconstruct it as a *mathx.LogHist.
type Hist struct {
	counts  []atomic.Int64 // mathx.LogHistBuckets() positive-sample buckets
	zero    atomic.Int64   // non-positive samples
	sumFP   atomic.Int64
	minBits atomic.Uint64
	maxBits atomic.Uint64
}

func newHist() *Hist {
	h := &Hist{counts: make([]atomic.Int64, mathx.LogHistBuckets())}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one sample. Intended for low-rate call sites (one
// chip-level read, one calibration step); the replay hot path batches
// locally and publishes through Flush instead.
func (h *Hist) Observe(v float64) {
	if h == nil {
		return
	}
	if v > 0 {
		h.counts[mathx.LogHistBucketOf(v)].Add(1)
	} else {
		h.zero.Add(1)
	}
	if fp := sumFixed(v); fp != 0 {
		h.sumFP.Add(fp)
	}
	h.lowerMin(v)
	h.raiseMax(v)
}

// Flush publishes the difference between cur and prev (a snapshot of
// cur at the previous flush; nil means empty) into the cell: only the
// buckets the batch touched are written. Per-shard single-writer
// batches flushed at deterministic chunk boundaries make the published
// state — including the fixed-point sum — independent of worker count.
func (h *Hist) Flush(cur, prev *mathx.LogHist) {
	if h == nil || cur == nil || cur.Count() == 0 {
		return
	}
	var prevZero int64
	var prevSum float64
	if prev != nil {
		prevZero = prev.ZeroCount()
		prevSum = prev.Sum()
	}
	cur.DiffVisit(prev, func(b int, d int64) { h.counts[b].Add(d) })
	if dz := cur.ZeroCount() - prevZero; dz != 0 {
		h.zero.Add(dz)
	}
	if d := sumFixed(cur.Sum()) - sumFixed(prevSum); d != 0 {
		h.sumFP.Add(d)
	}
	h.lowerMin(cur.Min())
	h.raiseMax(cur.Max())
}

func (h *Hist) lowerMin(v float64) {
	for {
		old := h.minBits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (h *Hist) raiseMax(v float64) {
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// snapshot reconstructs the cell as a LogHist. Concurrent writers make
// the parts mutually slightly stale — each part is still a value some
// prefix of the updates produced, and once writers quiesce (end of
// run, or a flush barrier) the reconstruction is exact.
func (h *Hist) snapshot() *mathx.LogHist {
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	lh, err := mathx.LogHistFromParts(counts, h.zero.Load(),
		float64(h.sumFP.Load())/histSumScale,
		math.Float64frombits(h.minBits.Load()),
		math.Float64frombits(h.maxBits.Load()))
	if err != nil {
		panic(err) // cell allocated on the LogHist layout; unreachable
	}
	return lh
}

package mathx

import (
	"math"
	"sort"
	"testing"
)

// nearestRank returns the q-th quantile of sorted xs under the
// nearest-rank definition LogHist.Quantile targets.
func nearestRank(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// checkQuantiles asserts the histogram's one-bucket-width contract on
// every interesting quantile: at least the exact rank statistic, at most
// one bucket width above it.
func checkQuantiles(t *testing.T, name string, xs []float64) {
	t.Helper()
	var h LogHist
	for _, v := range xs {
		h.Add(v)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	f := h.WidthFactor()
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		exact := nearestRank(sorted, q)
		got := h.Quantile(q)
		if exact <= 0 {
			if got != 0 {
				t.Errorf("%s q=%v: got %v for non-positive rank statistic %v",
					name, q, got, exact)
			}
			continue
		}
		if got < exact || got > exact*f {
			t.Errorf("%s q=%v: got %v outside [%v, %v] (exact %v, factor %v)",
				name, q, got, exact, exact*f, exact, f)
		}
	}
	// The mean is exact (same accumulation order as a plain sum).
	if got, want := h.Mean(), Mean(xs); got != want {
		t.Errorf("%s: mean %v != exact %v", name, got, want)
	}
	if h.Min() != sorted[0] || h.Max() != sorted[len(sorted)-1] {
		t.Errorf("%s: min/max %v/%v want %v/%v",
			name, h.Min(), h.Max(), sorted[0], sorted[len(sorted)-1])
	}
	if h.Count() != int64(len(xs)) {
		t.Errorf("%s: count %d, want %d", name, h.Count(), len(xs))
	}
}

func TestLogHistAdversarialDistributions(t *testing.T) {
	r := NewRand(7)
	n := 50000

	constant := make([]float64, n)
	for i := range constant {
		constant[i] = 137.5
	}
	checkQuantiles(t, "constant", constant)

	// Bimodal with a 6-decade gap placed right at the p95 boundary: the
	// quantile must snap to one of the modes, never into the gap.
	bimodal := make([]float64, n)
	for i := range bimodal {
		if i < n*95/100 {
			bimodal[i] = 80 + r.Float64()
		} else {
			bimodal[i] = 8e7 + r.Float64()
		}
	}
	checkQuantiles(t, "bimodal", bimodal)

	heavyTail := make([]float64, n)
	for i := range heavyTail {
		heavyTail[i] = math.Exp(r.NormFloat64()*2 + 5)
	}
	checkQuantiles(t, "lognormal", heavyTail)

	exponential := make([]float64, n)
	for i := range exponential {
		exponential[i] = -math.Log(1-r.Float64()) * 250
	}
	checkQuantiles(t, "exponential", exponential)

	// Zeros mixed in (unmapped reads can be arbitrarily cheap).
	withZeros := make([]float64, n)
	for i := range withZeros {
		if i%3 == 0 {
			withZeros[i] = 0
		} else {
			withZeros[i] = 5 + r.Float64()*100
		}
	}
	checkQuantiles(t, "with-zeros", withZeros)

	// Discrete latency ladder (retry multiples of a base cost), the shape
	// real replay latencies take.
	ladder := make([]float64, n)
	for i := range ladder {
		ladder[i] = 65 * float64(1+r.Intn(16))
	}
	checkQuantiles(t, "ladder", ladder)

	checkQuantiles(t, "single", []float64{42})
	checkQuantiles(t, "two", []float64{1e-6, 1e6})
}

// TestLogHistVsPercentile ties the histogram to the repo's exact-sort
// percentile path on a smooth distribution: with dense samples the
// interpolated percentile sits between adjacent order statistics, so the
// histogram must land within one bucket width of it.
func TestLogHistVsPercentile(t *testing.T) {
	r := NewRand(3)
	xs := make([]float64, 80000)
	var h LogHist
	for i := range xs {
		xs[i] = math.Exp(r.NormFloat64() + 4)
		h.Add(xs[i])
	}
	f := h.WidthFactor()
	for _, p := range []float64{50, 95, 99} {
		exact := Percentile(xs, p)
		got := h.Percentile(p)
		if got < exact/f || got > exact*f*f {
			t.Errorf("p%v: hist %v vs exact %v outside one-bucket tolerance", p, got, exact)
		}
	}
}

func TestLogHistMerge(t *testing.T) {
	r := NewRand(11)
	xs := make([]float64, 40000)
	for i := range xs {
		xs[i] = math.Exp(r.NormFloat64() * 3)
	}
	var whole LogHist
	parts := make([]LogHist, 4)
	for i, v := range xs {
		whole.Add(v)
		parts[i%4].Add(v)
	}
	var merged LogHist
	for i := range parts {
		merged.Merge(&parts[i])
	}
	if merged.Count() != whole.Count() {
		t.Fatalf("count %d != %d", merged.Count(), whole.Count())
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if merged.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("q=%v: merged %v != whole %v", q, merged.Quantile(q), whole.Quantile(q))
		}
	}
	if math.Abs(merged.Sum()-whole.Sum()) > 1e-9*math.Abs(whole.Sum()) {
		t.Fatalf("sum %v != %v", merged.Sum(), whole.Sum())
	}
	if merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatal("min/max not preserved by merge")
	}
	// Merging the same parts in the same order twice is bit-identical
	// (the engine's determinism across worker counts relies on this).
	var again LogHist
	for i := range parts {
		again.Merge(&parts[i])
	}
	if again.Sum() != merged.Sum() || again.Mean() != merged.Mean() {
		t.Fatal("shard-order merge not deterministic")
	}
	// Merging into an occupied histogram from an empty one is a no-op.
	before := merged.Quantile(0.5)
	merged.Merge(&LogHist{})
	if merged.Quantile(0.5) != before {
		t.Fatal("empty merge changed state")
	}
}

// TestLogHistPartsRoundTrip: accumulating samples through the exported
// bucket layout (LogHistBucketOf + ZeroCount semantics) and rebuilding
// with LogHistFromParts must reproduce Add-built state exactly — the
// obs layer's atomic histograms depend on this round trip.
func TestLogHistPartsRoundTrip(t *testing.T) {
	r := NewRand(23)
	var want LogHist
	counts := make([]int64, LogHistBuckets())
	var zero int64
	var sum float64
	min, max := math.Inf(1), math.Inf(-1)
	for i := 0; i < 30000; i++ {
		v := math.Exp(r.NormFloat64()*2 + 3)
		if i%17 == 0 {
			v = 0
		}
		want.Add(v)
		sum += v
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		if v <= 0 {
			zero++
		} else {
			counts[LogHistBucketOf(v)]++
		}
	}
	got, err := LogHistFromParts(counts, zero, sum, min, max)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != want.Count() || got.ZeroCount() != want.ZeroCount() ||
		got.Sum() != want.Sum() || got.Min() != want.Min() || got.Max() != want.Max() {
		t.Fatalf("round trip diverged: got count=%d zero=%d sum=%v min=%v max=%v",
			got.Count(), got.ZeroCount(), got.Sum(), got.Min(), got.Max())
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got.Quantile(q) != want.Quantile(q) {
			t.Fatalf("q=%v: %v != %v", q, got.Quantile(q), want.Quantile(q))
		}
	}
	if _, err := LogHistFromParts(make([]int64, 3), 0, 0, 0, 0); err == nil {
		t.Fatal("accepted wrong bucket count")
	}
	// Bucket bounds are consistent with the internal index mapping.
	for _, v := range []float64{1e-6, 0.5, 1, 137.5, 8e7} {
		i := LogHistBucketOf(v)
		if up := logHistUpper(i); v >= up {
			t.Fatalf("v=%v lands in bucket %d with upper bound %v", v, i, up)
		}
	}
}

// TestLogHistDiffVisit: the visit must surface exactly the buckets that
// changed between two snapshots, with the right deltas; a nil prev means
// "diff against empty".
func TestLogHistDiffVisit(t *testing.T) {
	var prev, cur LogHist
	for _, v := range []float64{10, 10, 500} {
		prev.Add(v)
		cur.Add(v)
	}
	cur.Add(10)
	cur.Add(7e4)

	deltas := map[int]int64{}
	cur.DiffVisit(&prev, func(b int, d int64) { deltas[b] = d })
	want := map[int]int64{LogHistBucketOf(10): 1, LogHistBucketOf(7e4): 1}
	if len(deltas) != len(want) {
		t.Fatalf("visited %v, want %v", deltas, want)
	}
	for b, d := range want {
		if deltas[b] != d {
			t.Fatalf("bucket %d delta %d, want %d", b, deltas[b], d)
		}
	}

	full := map[int]int64{}
	cur.DiffVisit(nil, func(b int, d int64) { full[b] = d })
	if full[LogHistBucketOf(10)] != 3 || full[LogHistBucketOf(500)] != 1 || full[LogHistBucketOf(7e4)] != 1 {
		t.Fatalf("nil-prev visit %v", full)
	}
}

// TestLogHistQuantileArgumentGuard: q outside [0, 1] — including NaN
// and the infinities — must resolve to the min/max paths instead of
// feeding an out-of-range product into the int64 conversion (whose
// result the Go spec leaves implementation-defined). On the pre-guard
// code NaN*count converts to an arbitrary rank, so the NaN cases fail.
func TestLogHistQuantileArgumentGuard(t *testing.T) {
	var h LogHist
	for _, v := range []float64{10, 20, 30, 40, 50} {
		h.Add(v)
	}
	cases := []struct {
		name string
		q    float64
		want float64
	}{
		{"nan", math.NaN(), 10},
		{"neg", -1, 10},
		{"neg-inf", math.Inf(-1), 10},
		{"zero", 0, 10},
		{"one", 1, 50},
		{"above-one", 2, 50},
		{"pos-inf", math.Inf(1), 50},
	}
	for _, c := range cases {
		got := h.Quantile(c.q)
		// The min path returns the rank-1 bucket's upper bound, so allow
		// one bucket width above the exact statistic (min), and demand
		// exactness on the max path (clamped to the observed max).
		lo, hi := c.want, c.want*h.WidthFactor()
		if got < lo || got > hi {
			t.Errorf("Quantile(%s=%v) = %v, want in [%v, %v]", c.name, c.q, got, lo, hi)
		}
		p := h.Percentile(c.q * 100)
		if p < lo || p > hi {
			t.Errorf("Percentile(%s=%v) = %v, want in [%v, %v]", c.name, c.q*100, p, lo, hi)
		}
	}
	// Empty histograms stay zero-valued whatever q is.
	var empty LogHist
	if empty.Quantile(math.NaN()) != 0 || empty.Percentile(math.NaN()) != 0 {
		t.Error("empty histogram returned non-zero for NaN quantile")
	}
}

func TestLogHistEmptyAndEdge(t *testing.T) {
	var h LogHist
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zero-valued")
	}
	// Samples beyond the binned exponent range clamp into edge buckets:
	// quantiles degrade to the observed extremes but never crash.
	h.Add(1e300)
	h.Add(1e-300)
	if got := h.Quantile(1); got != 1e300 {
		t.Fatalf("clamped top quantile %v", got)
	}
	if got := h.Quantile(0.1); got <= 0 || got > 1e300 {
		t.Fatalf("clamped bottom quantile %v", got)
	}
}

// TestLogHistIndexMatchesFrexp pins the bit-twiddled logHistIndex to
// the arithmetic Frexp formulation it replaced, across the bucketed
// exponent range, the clamped ranges beyond it, and denormals.
func TestLogHistIndexMatchesFrexp(t *testing.T) {
	ref := func(v float64) int {
		m, e := math.Frexp(v)
		if e < logHistExpLo {
			return 0
		}
		if e > logHistExpHi {
			return len(LogHist{}.counts) - 1
		}
		sub := int((m*2 - 1) * logHistSub)
		if sub >= logHistSub {
			sub = logHistSub - 1
		}
		return (e-logHistExpLo)*logHistSub + sub
	}
	rng := NewRand(99)
	for e := -1080; e <= 1024; e++ { // full double range incl. denormals
		for i := 0; i < 8; i++ {
			v := math.Ldexp(0.5+0.5*rng.Float64(), e)
			if v == 0 { // Ldexp underflowed to zero: Add routes it to zero
				continue
			}
			if got, want := logHistIndex(v), ref(v); got != want {
				t.Fatalf("logHistIndex(%g) = %d, want %d", v, got, want)
			}
		}
	}
	for _, v := range []float64{
		math.SmallestNonzeroFloat64, math.MaxFloat64, 1, 1.5,
		math.Nextafter(1, 0), math.Nextafter(1, 2), 0.1, 3.14159e-30, 2.5e30,
	} {
		if got, want := logHistIndex(v), ref(v); got != want {
			t.Fatalf("logHistIndex(%g) = %d, want %d", v, got, want)
		}
	}
	// +Inf and NaN clamp to the top bucket (the old formulation's float
	// arithmetic had no defined answer for them).
	top := len(LogHist{}.counts) - 1
	if logHistIndex(math.Inf(1)) != top || logHistIndex(math.NaN()) != top {
		t.Fatal("Inf/NaN did not clamp to the top bucket")
	}
}

// BenchmarkLogHistAdd tracks the per-sample cost of the replay-path
// histogram accounting (two Adds per serviced read).
func BenchmarkLogHistAdd(b *testing.B) {
	var h LogHist
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Add(float64(i%4096) + 0.5)
	}
	if h.Count() == 0 {
		b.Fatal("no samples")
	}
}

package mathx

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// TestNormInvMonotone: the inverse CDF must be strictly increasing.
func TestNormInvMonotone(t *testing.T) {
	f := func(aRaw, bRaw uint32) bool {
		a := 1e-9 + float64(aRaw)/float64(math.MaxUint32)*(1-2e-9)
		b := 1e-9 + float64(bRaw)/float64(math.MaxUint32)*(1-2e-9)
		if a == b {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return NormInv(a) <= NormInv(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestPolyFitResidualOrthogonality: least squares leaves residuals with
// (near) zero mean when the model includes a constant term.
func TestPolyFitResidualOrthogonality(t *testing.T) {
	r := NewRand(71)
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = r.Float64()*10 - 5
		ys[i] = 3*xs[i]*xs[i] - 2*xs[i] + 1 + r.NormFloat64()
	}
	fit, err := PolyFit(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	var resSum float64
	for i := range xs {
		resSum += ys[i] - fit.Eval(xs[i])
	}
	if math.Abs(resSum/float64(len(xs))) > 1e-6 {
		t.Fatalf("mean residual %v not ~0", resSum/float64(len(xs)))
	}
}

// TestPercentileBetweenBounds: any percentile lies within [min, max] and
// percentiles are monotone in p.
func TestPercentileBetweenBounds(t *testing.T) {
	f := func(seed uint32) bool {
		r := NewRand(uint64(seed))
		n := 1 + r.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
		}
		lo, hi := MinMax(xs)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(xs, p)
			if v < lo-1e-12 || v > hi+1e-12 || v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLinearFitMatchesPolyFitDegree1: two independent least-squares paths
// must agree.
func TestLinearFitMatchesPolyFitDegree1(t *testing.T) {
	r := NewRand(73)
	xs := make([]float64, 50)
	ys := make([]float64, 50)
	for i := range xs {
		xs[i] = r.Float64() * 100
		ys[i] = 0.7*xs[i] - 3 + r.NormFloat64()
	}
	slope, intercept, _, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := PolyFit(xs, ys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Coef[1]-slope) > 1e-9 || math.Abs(fit.Coef[0]-intercept) > 1e-9 {
		t.Fatalf("LinearFit (%v,%v) != PolyFit (%v,%v)",
			slope, intercept, fit.Coef[1], fit.Coef[0])
	}
}

// TestSummaryAgainstSort: the 50th percentile and MinMax agree with direct sorting.
func TestSummaryAgainstSort(t *testing.T) {
	r := NewRand(79)
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = r.Float64()
	}
	median := Percentile(xs, 50)
	lo, hi := MinMax(xs)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if median != sorted[50] {
		t.Fatalf("median %v != sorted middle %v", median, sorted[50])
	}
	if lo != sorted[0] || hi != sorted[100] {
		t.Fatal("min/max wrong")
	}
}

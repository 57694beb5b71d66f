package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Fatalf("Variance = %v, want 4", v)
	}
	if s := StdDev(xs); s != 2 {
		t.Fatalf("StdDev = %v, want 2", s)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || StdDev(nil) != 0 {
		t.Fatal("empty-slice stats should be 0")
	}
	if Variance([]float64{42}) != 0 {
		t.Fatal("singleton variance should be 0")
	}
	if AbsMean(nil) != 0 {
		t.Fatal("empty AbsMean should be 0")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 0})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = (%v, %v)", lo, hi)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {-5, 1}, {110, 5},
		// Out-of-range p must never reach the rank-to-int conversion:
		// NaN and -Inf take the minimum, +Inf the maximum. Pre-guard,
		// the NaN case computed int(math.Floor(NaN)) — undefined.
		{math.NaN(), 1}, {math.Inf(-1), 1}, {math.Inf(1), 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPearsonBounds(t *testing.T) {
	f := func(seed uint32) bool {
		r := NewRand(uint64(seed))
		n := 3 + r.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
			ys[i] = r.NormFloat64()
		}
		rho := Pearson(xs, ys)
		return rho >= -1-1e-12 && rho <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Fatal("constant-x Pearson should be 0")
	}
	if Pearson([]float64{1}, []float64{1}) != 0 {
		t.Fatal("undersized Pearson should be 0")
	}
}

func TestAbsMean(t *testing.T) {
	if AbsMean([]float64{-2, 2, -4, 4}) != 3 {
		t.Fatal("AbsMean wrong")
	}
}

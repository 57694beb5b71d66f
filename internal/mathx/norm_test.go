package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormInvKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.8413447460685429, 1},    // Phi(1)
		{0.15865525393145707, -1},  // Phi(-1)
		{0.9772498680518208, 2},    // Phi(2)
		{0.022750131948179212, -2}, // Phi(-2)
		{0.9986501019683699, 3},
		{0.0013498980316301035, -3},
	}
	for _, c := range cases {
		got := NormInv(c.p)
		if math.Abs(got-c.want) > 1e-8 {
			t.Errorf("NormInv(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormInvEdgeCases(t *testing.T) {
	if !math.IsInf(NormInv(0), -1) {
		t.Error("NormInv(0) should be -Inf")
	}
	if !math.IsInf(NormInv(1), 1) {
		t.Error("NormInv(1) should be +Inf")
	}
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		if !math.IsNaN(NormInv(p)) {
			t.Errorf("NormInv(%v) should be NaN", p)
		}
	}
}

func TestNormInvRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		// p in (1e-9, 1-1e-9) to avoid extreme tails.
		p := 1e-9 + float64(raw)/float64(math.MaxUint32)*(1-2e-9)
		x := NormInv(p)
		back := NormCDF(x)
		return math.Abs(back-p) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNormCDFSymmetry(t *testing.T) {
	f := func(raw int16) bool {
		x := float64(raw) / 4096
		return math.Abs(NormCDF(x)+NormCDF(-x)-1) < 1e-14
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGaussFromHashMoments(t *testing.T) {
	const n = 300000
	var sum, sumSq float64
	for i := uint64(0); i < n; i++ {
		v := GaussFromHash(Hash64(i))
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("GaussFromHash produced non-finite %v at %d", v, i)
		}
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("hash-gaussian mean %v", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("hash-gaussian variance %v", variance)
	}
}

func TestUniformFromHashRange(t *testing.T) {
	for i := uint64(0); i < 100000; i++ {
		u := UniformFromHash(Hash64(i * 977))
		if u < 0 || u >= 1 {
			t.Fatalf("UniformFromHash out of range: %v", u)
		}
	}
}

// TestGaussFromHashFinite: the extreme hashes map to finite variates. The
// top 2^11 hashes put the bucket midpoint on exactly 1.0, where the
// unclamped uniform gave NormInv(1) = +Inf (Acklam alone gives NaN).
func TestGaussFromHashFinite(t *testing.T) {
	for _, h := range []uint64{0, 0xFFFFFFFFFFFFF800, ^uint64(0)} {
		if v := GaussFromHash(h); math.IsInf(v, 0) || math.IsNaN(v) {
			t.Errorf("GaussFromHash(%#x) = %v, want finite", h, v)
		}
	}
}

// TestGaussFromHashMatchesNormInv holds the unrefined approximant behind
// GaussFromHash to Acklam's published 1.15e-9 relative error against the
// Halley-refined NormInv of the same uniform, over 4M seeded hashes and
// the 2^20 lowest and 2^20 highest 53-bit buckets (both tails).
func TestGaussFromHashMatchesNormInv(t *testing.T) {
	var worst float64
	check := func(h uint64) {
		u := min((float64(h>>11)+0.5)*(1.0/(1<<53)), uMax)
		got, want := GaussFromHash(h), NormInv(u)
		diff := math.Abs(got - want)
		if !(diff <= 1.2e-9*max(1, math.Abs(want))) { // NaN fails too
			t.Fatalf("GaussFromHash(%#x) = %v, NormInv(%v) = %v: |diff| %v",
				h, got, u, want, diff)
		}
		worst = max(worst, diff)
	}
	r := NewRand(1)
	for i := 0; i < 4<<20; i++ {
		check(r.Uint64())
	}
	for k := uint64(0); k < 1<<20; k++ {
		check(k << 11)
		check((1<<53 - 1 - k) << 11)
	}
	t.Logf("largest |GaussFromHash - NormInv| = %.3g", worst)
}

// GaussBound must bound every variate GaussFromHash can return: the
// buckets nearest both extremes (where the tails are steepest and any
// non-monotone rounding would show) and a spread of random hashes.
func TestGaussBound(t *testing.T) {
	if GaussBound < 8 || GaussBound > 8.5 {
		t.Fatalf("GaussBound = %v, want about 8.3", GaussBound)
	}
	check := func(h uint64) {
		if z := GaussFromHash(h); math.Abs(z) > GaussBound {
			t.Fatalf("|GaussFromHash(%#x)| = %v exceeds GaussBound %v", h, math.Abs(z), GaussBound)
		}
	}
	for k := uint64(0); k < 1<<16; k++ {
		check(k << 11)
		check(math.MaxUint64 - k<<11)
	}
	r := NewRand(5)
	for i := 0; i < 1<<16; i++ {
		check(r.Uint64())
	}
}

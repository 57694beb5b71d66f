package mathx

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, v := range xs {
		d := v - m
		s += float64(d * d)
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the smallest and largest values in xs. It panics on an
// empty slice.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("mathx: MinMax of empty slice")
	}
	lo, hi = xs[0], xs[0]
	for _, v := range xs[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It panics on an empty
// slice. p is validated like LogHist.Quantile's q: NaN and negative p
// take the minimum, p above 100 the maximum, so the rank-to-int
// conversion below never sees a value whose conversion the Go spec
// leaves undefined.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("mathx: Percentile of empty slice")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if math.IsNaN(p) || p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := float64(p / 100 * float64(len(sorted)-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// Pearson returns the Pearson correlation coefficient between x and y.
// It returns 0 when either input is constant or the lengths differ.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	_, _, r, err := LinearFit(x, y)
	if err != nil {
		return 0
	}
	return r
}

// AbsMean returns the mean of |xs[i]|.
func AbsMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += math.Abs(v)
	}
	return s / float64(len(xs))
}

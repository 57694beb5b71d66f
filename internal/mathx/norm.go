package mathx

import "math"

// NormInv returns the inverse of the standard normal cumulative
// distribution function evaluated at p in (0, 1): Acklam's approximant
// (acklam) refined with one Halley step against NormCDF, which takes its
// 1.15e-9 relative error to near machine precision. The step costs a
// math.Erfc and a math.Exp, so the per-cell sensing-noise path
// (GaussFromHash) uses the approximant alone.
//
// NormInv(0) is -Inf and NormInv(1) is +Inf; p outside [0, 1] yields NaN.
func NormInv(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	}
	x := acklam(p)

	// One Halley refinement step against the true CDF.
	e := float64(NormCDF(x)) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(float64(x*x)/2)
	x = x - u/(1+float64(x*u/2))
	return x
}

// acklam is Acklam's rational approximation to the inverse normal CDF
// for p in (0, 1), unrefined: relative error below 1.15e-9 over the
// whole open interval. At p == 1 it returns NaN (Inf/Inf in the upper
// tail), so callers keep p strictly below 1.
func acklam(p float64) float64 {
	// Coefficients for the central and tail rational approximations.
	a := [...]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [...]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	c := [...]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [...]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}

	// Horner's rule, one step per statement: every float64(k*x) rounds
	// the product on its own, so arm64 cannot fuse it with the add.
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		num := float64(c[0]*q) + c[1]
		num = float64(num*q) + c[2]
		num = float64(num*q) + c[3]
		num = float64(num*q) + c[4]
		num = float64(num*q) + c[5]
		den := float64(d[0]*q) + d[1]
		den = float64(den*q) + d[2]
		den = float64(den*q) + d[3]
		den = float64(den*q) + 1
		return num / den
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		num := float64(a[0]*r) + a[1]
		num = float64(num*r) + a[2]
		num = float64(num*r) + a[3]
		num = float64(num*r) + a[4]
		num = (float64(num*r) + a[5]) * q
		den := float64(b[0]*r) + b[1]
		den = float64(den*r) + b[2]
		den = float64(den*r) + b[3]
		den = float64(den*r) + b[4]
		den = float64(den*r) + 1
		return num / den
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		num := float64(c[0]*q) + c[1]
		num = float64(num*q) + c[2]
		num = float64(num*q) + c[3]
		num = float64(num*q) + c[4]
		num = -(float64(num*q) + c[5])
		den := float64(d[0]*q) + d[1]
		den = float64(den*q) + d[2]
		den = float64(den*q) + d[3]
		den = float64(den*q) + 1
		return num / den
	}
}

// NormCDF returns the standard normal cumulative distribution function at
// x, computed via the complementary error function for accuracy in the
// tails.
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// GaussFromHash converts a 64-bit hash value into a standard normal
// variate: the top 53 bits select a bucket midpoint u in (0, 1), and u
// goes through the unrefined Acklam approximant, within
// 1.2e-9·max(1, |z|) of NormInv(u) at a quarter of its cost. The chip
// model compares noisy voltages against read thresholds, and a 1e-9 σ
// shift flips none of the comparisons the pinned digests cover.
//
// The top bucket's midpoint rounds to exactly 1.0 (k + 0.5 is a rounding
// tie for every k >= 2^52), so u is clamped to the largest float64 below
// 1. The result is always finite, within about ±8.3.
func GaussFromHash(h uint64) float64 {
	u := (float64(h>>11) + 0.5) * (1.0 / (1 << 53))
	if u > uMax {
		u = uMax
	}
	return acklam(u)
}

// uMax is the largest float64 below 1.
const uMax = 1 - 1.0/(1<<53)

// GaussBound bounds |GaussFromHash(h)| over every 64-bit h. The two
// extreme hashes give the extreme variates: h = 0 selects the smallest
// u (2^-54) and h = 2^64-1 the largest (uMax), and acklam is monotone in
// u apart from rounding at the ulp scale, which the 2^-30 relative
// margin covers. The chip's read kernel scales it by the sensing-noise
// sigma to decide which cells' noise can change a comparison.
var GaussBound = math.Max(-GaussFromHash(0), GaussFromHash(math.MaxUint64)) * (1 + 0x1p-30)

// UniformFromHash converts a 64-bit hash value into a uniform in [0, 1).
func UniformFromHash(h uint64) float64 {
	return float64(h>>11) * (1.0 / (1 << 53))
}

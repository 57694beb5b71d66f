package ecc

import (
	"math"

	"sentinel3d/internal/mathx"
)

// Sensing describes the soft-sensing precision of a read: hard decision
// uses the single read voltage, b-bit soft sensing adds reference reads
// around it (2^b - 1 sensing levels in total), binning each cell into one
// of 2^b regions with a log-likelihood ratio per region.
//
// This mirrors the paper's Figure 19 comparison of hard, 2-bit soft and
// 3-bit soft LDPC decoding.
type Sensing struct {
	// Bits is the sensing precision: 1 = hard, 2 = 2-bit soft, 3 = 3-bit.
	Bits int
	// Step is the voltage spacing between adjacent sensing levels, in
	// normalized voltage units.
	Step float64
}

// HardSensing returns single-read sensing.
func HardSensing() Sensing { return Sensing{Bits: 1} }

// SoftSensing returns b-bit sensing with the given level spacing.
func SoftSensing(b int, step float64) Sensing { return Sensing{Bits: b, Step: step} }

// Levels returns the sensing-level voltage offsets relative to the read
// voltage, in ascending order: 2^Bits - 1 levels centred on 0.
func (s Sensing) Levels() []float64 {
	n := (1 << s.Bits) - 1
	out := make([]float64, n)
	mid := n / 2
	for i := range out {
		out[i] = float64(i-mid) * s.Step
	}
	return out
}

// LLRTable returns the per-region LLR magnitudes for a boundary between
// two Gaussian states separated by `separation` with common deviation
// `sigma`, assuming the read voltage sits at the optimum (midpoint).
// Region i is the bin between sensing levels i-1 and i (regions =
// levels+1); the sign of the LLR is the region's side of the centre.
//
// LLR convention: positive favours the *below-boundary* side (bit read as
// the lower state).
func (s Sensing) LLRTable(separation, sigma float64) []float64 {
	levels := s.Levels()
	regions := len(levels) + 1
	out := make([]float64, regions)
	muLo, muHi := -separation/2, separation/2
	for i := 0; i < regions; i++ {
		// Region bounds relative to the read voltage.
		lo := math.Inf(-1)
		hi := math.Inf(1)
		if i > 0 {
			lo = levels[i-1]
		}
		if i < len(levels) {
			hi = levels[i]
		}
		pLo := gaussMass(lo, hi, muLo, sigma) // cell truly below boundary
		pHi := gaussMass(lo, hi, muHi, sigma) // cell truly above boundary
		llr := math.Log((pLo + 1e-300) / (pHi + 1e-300))
		out[i] = clampLLR(llr, 20)
	}
	return out
}

// gaussMass returns the probability mass of N(mu, sigma) in [lo, hi].
func gaussMass(lo, hi, mu, sigma float64) float64 {
	cdf := func(x float64) float64 {
		if math.IsInf(x, 1) {
			return 1
		}
		if math.IsInf(x, -1) {
			return 0
		}
		return mathx.NormCDF((x - mu) / sigma)
	}
	return cdf(hi) - cdf(lo)
}

func clampLLR(x, lim float64) float64 {
	if x > lim {
		return lim
	}
	if x < -lim {
		return -lim
	}
	return x
}

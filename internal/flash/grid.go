package flash

import "math"

// grid buckets float64 values by position, for kernels that look a
// cell's class up in a table instead of comparing it against a list of
// voltages. It maps [glo, glo + nb/scale] onto buckets 1..nb+1, with
// bucket 0 below it and nb+2 above it, and is monotone: x <= y implies
// bucket(x) <= bucket(y). So a bucket that holds none of a set of
// voltages, nor any point of their noise windows, holds cells that all
// compare the same way with every voltage and need no noise; a table
// over the buckets then answers for those cells without a comparison.
type grid struct {
	glo, scale float64
	nb         int
}

// newGrid lays nb buckets over [lo, hi]. It reports false when the
// span is not a positive finite number or its scale overflows.
func newGrid(lo, hi float64, nb int) (grid, bool) {
	span := hi - lo
	scale := float64(nb) / span
	if !(span > 0) || math.IsInf(span, 0) || math.IsInf(scale, 0) {
		return grid{}, false
	}
	return grid{glo: lo, scale: scale, nb: nb}, true
}

// buckets returns the number of buckets, nb+3.
func (g *grid) buckets() int { return g.nb + 3 }

// bucket returns x's bucket: clamp(trunc(u), -1, nb+1) + 1 for
// u = (x-glo)·scale, and 0 for NaN, which it takes for -Inf. The clamp
// is in floating point, so that the conversion to an integer is exact
// on every GOARCH. Scans call index, and bucket only where index gives
// up.
func (g *grid) bucket(x float64) int {
	if x != x {
		return 0
	}
	return int(min(max((x-g.glo)*g.scale, -1), float64(g.nb+1))) + 1
}

// index is bucket for the x whose u lies strictly within ±2^40 — every
// cell's Vth — at a fraction of its cost and without a branch: the
// clamp is integer arithmetic on sign masks. For any other x (NaN
// included) it returns some bucket and bad all ones; a scan ORs the
// bad masks of a run of cells and redoes the run with bucket when the
// result is not 0.
func (g *grid) index(x float64) (k int, bad uint64) {
	u := (x - g.glo) * g.scale
	bad = uint64(int64(0x4270000000000000-1-math.Float64bits(u)&^(1<<63)) >> 63) // |u| >= 2^40, or NaN
	k = int(u)
	k |= k >> 63 // max(k, -1)
	d := g.nb + 1 - k
	return g.nb + 2 - d&^(d>>63), bad // min(k, nb+1) + 1
}

package mathx

import (
	"fmt"
	"math"
)

// LogHist bucket layout: every octave [2^(e-1), 2^e) is split into
// logHistSub equal-width sub-buckets (an HDR-histogram-style
// linear-in-mantissa subdivision), so every bucket's upper/lower bound
// ratio is at most 1 + 1/logHistSub ≈ 3.1%. Exponents outside
// [logHistExpLo, logHistExpHi] clamp into the edge octaves; for
// microsecond-scale latencies that range spans ~5e-20 .. ~1.8e19, so
// clamping never happens in practice.
const (
	logHistSub     = 32
	logHistSubBits = 5 // log2(logHistSub); logHistIndex needs the power of two
	logHistExpLo   = -64
	logHistExpHi   = 64
)

// Compile-time check that logHistSubBits matches logHistSub.
var _ = [1]struct{}{}[logHistSub-1<<logHistSubBits]

// LogHist is a fixed-resolution log-bucketed histogram for non-negative
// samples (read latencies). It stores O(1) state in the sample count —
// ~4k buckets, ~33 KiB — while keeping the mean exact (a running sum)
// and quantiles accurate to one bucket width (a ≤3.2% relative error).
// Histograms from independent shards Merge losslessly; merging in a
// fixed shard order keeps the floating-point sum deterministic.
//
// The zero value is ready to use.
type LogHist struct {
	counts [(logHistExpHi - logHistExpLo + 1) * logHistSub]int64
	// zero counts non-positive samples; they participate in quantiles at
	// value 0 and in the sum at their true value.
	zero     int64
	count    int64
	sum      float64
	min, max float64
}

// logHistIndex maps a positive sample to its bucket. It is on the
// replay hot path (two histogram adds per serviced read), so it works
// straight off the float bits: the Frexp exponent is the biased
// exponent field minus 1022, and the sub-bucket — the old
// int((m*2-1)*logHistSub), which all cancels to a truncation because
// every scale factor is a power of two — is the top log2(logHistSub)
// mantissa bits. TestLogHistIndexMatchesFrexp pins the equivalence to
// the Frexp formulation across the full exponent range.
func logHistIndex(v float64) int {
	b := math.Float64bits(v)
	e := int(b>>52)&0x7ff - 1022
	if e < logHistExpLo {
		// Includes denormals: their true exponent is below -1022, far
		// outside the bucketed range.
		return 0
	}
	if e > logHistExpHi {
		// Includes +Inf and NaN (biased exponent 0x7ff), which the old
		// float arithmetic mishandled; callers route NaN away regardless.
		return len(LogHist{}.counts) - 1
	}
	sub := int(b>>(52-logHistSubBits)) & (logHistSub - 1)
	return (e-logHistExpLo)*logHistSub + sub
}

// logHistUpper returns the exclusive upper bound of bucket i.
func logHistUpper(i int) float64 {
	e := i/logHistSub + logHistExpLo
	sub := i % logHistSub
	return math.Ldexp(1+float64(float64(sub+1)/logHistSub), e-1)
}

// WidthFactor is the worst-case ratio between a bucket's upper and lower
// bound: the resolution of Quantile.
func (h *LogHist) WidthFactor() float64 { return 1 + 1.0/logHistSub }

// Add records one sample.
func (h *LogHist) Add(v float64) {
	if h.count == 0 {
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.count++
	h.sum += v
	if v <= 0 {
		h.zero++
		return
	}
	h.counts[logHistIndex(v)]++
}

// Merge folds o into h. Callers that need bit-identical results across
// runs must merge in a fixed order (the engine merges in shard order).
func (h *LogHist) Merge(o *LogHist) {
	if o.count == 0 {
		return
	}
	if h.count == 0 {
		h.min, h.max = o.min, o.max
	} else {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
	h.count += o.count
	h.sum += o.sum
	h.zero += o.zero
	for i, c := range o.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
}

// Count returns the number of recorded samples.
func (h *LogHist) Count() int64 { return h.count }

// Sum returns the exact sum of recorded samples.
func (h *LogHist) Sum() float64 { return h.sum }

// Mean returns the exact mean, or 0 with no samples.
func (h *LogHist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest recorded sample, or 0 with no samples.
func (h *LogHist) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample, or 0 with no samples.
func (h *LogHist) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the q-th quantile (q in [0, 1]) under the
// nearest-rank definition, resolved to one bucket width: the result is
// at least the rank's sample and overshoots it by less than
// WidthFactor. With no samples it returns 0.
//
// q is validated before use: NaN and negative values take the minimum
// path (rank 1) and values above 1 return the maximum. Converting an
// unguarded NaN or out-of-range product to int64 is undefined per the
// Go spec, so the raw conversion must never see such a q.
func (h *LogHist) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if math.IsNaN(q) || q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	if rank == h.count {
		return h.max // exact, and immune to exponent-range clamping
	}
	cum := h.zero
	if cum >= rank {
		return 0
	}
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			// The bucket's upper bound keeps the one-sided "within one
			// bucket" guarantee; clamping to the observed max makes the
			// top quantile exact.
			u := logHistUpper(i)
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max // unreachable: counts sum to count-zero
}

// Percentile returns the p-th percentile (p in [0, 100]). It mirrors
// Quantile's guard: NaN and negative p take the minimum path, p above
// 100 returns the maximum.
func (h *LogHist) Percentile(p float64) float64 { return h.Quantile(p / 100) }

// ---------------------------------------------------------------------------
// Bucket-layout accessors. The observability layer (internal/obs) keeps
// its concurrent histograms on the exact LogHist bucket grid so shard
// snapshots reconstruct as LogHist values and merge losslessly; these
// expose the layout without opening up the accumulator state.

// LogHistBuckets returns the number of positive-sample buckets.
func LogHistBuckets() int { return len(LogHist{}.counts) }

// LogHistBucketOf maps a positive sample to its bucket index. Callers
// route v <= 0 (and NaN) to the zero count instead.
func LogHistBucketOf(v float64) int { return logHistIndex(v) }

// ZeroCount returns the number of recorded non-positive samples.
func (h *LogHist) ZeroCount() int64 { return h.zero }

// DiffVisit calls fn for every positive-sample bucket whose count
// differs between h and prev (which may be nil, meaning all-zero),
// passing the bucket index and the count delta. It lets an incremental
// publisher push only the buckets a batch of samples touched.
func (h *LogHist) DiffVisit(prev *LogHist, fn func(bucket int, delta int64)) {
	for i, c := range h.counts {
		var p int64
		if prev != nil {
			p = prev.counts[i]
		}
		if c != p {
			fn(i, c-p)
		}
	}
}

// LogHistFromParts reconstructs a LogHist from externally accumulated
// state: per-bucket counts on the LogHistBuckets layout, the
// non-positive-sample count, the exact sum, and the observed min/max
// (ignored when the histogram is empty). It is the bridge back from the
// observability layer's atomic shard histograms to LogHist's merging
// and quantile machinery.
func LogHistFromParts(counts []int64, zero int64, sum, min, max float64) (*LogHist, error) {
	if len(counts) != LogHistBuckets() {
		return nil, fmt.Errorf("mathx: %d bucket counts, want %d", len(counts), LogHistBuckets())
	}
	h := &LogHist{zero: zero, sum: sum, count: zero}
	copy(h.counts[:], counts)
	for _, c := range counts {
		h.count += c
	}
	if h.count > 0 {
		h.min, h.max = min, max
	}
	return h, nil
}

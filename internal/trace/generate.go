package trace

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"sentinel3d/internal/mathx"
)

// WorkloadSpec parameterizes a synthetic workload generator.
type WorkloadSpec struct {
	// Name labels the workload (MSR volume names for the built-ins).
	Name string
	// ReadFrac is the fraction of read requests.
	ReadFrac float64
	// MeanIATUS is the mean inter-arrival time in microseconds.
	MeanIATUS float64
	// Burstiness in [0, 1) mixes a heavy burst mode into arrivals: with
	// this probability the next request arrives almost immediately.
	Burstiness float64
	// WorkingSetPages is the footprint in 4 KiB pages.
	WorkingSetPages int64
	// ZipfS is the Zipf skew of page popularity (0 = uniform).
	ZipfS float64
	// MeanPages is the mean request size in pages (geometric).
	MeanPages float64
	// SeqProb is the probability that a request continues sequentially
	// after the previous one instead of seeking.
	SeqProb float64
}

// Validate reports spec errors. A NaN passes every range comparison,
// so the float fields are first checked to be finite.
func (w WorkloadSpec) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"read fraction", w.ReadFrac}, {"mean inter-arrival", w.MeanIATUS},
		{"burstiness", w.Burstiness}, {"zipf skew", w.ZipfS},
		{"mean pages", w.MeanPages}, {"seq probability", w.SeqProb},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("trace: %s %v is not finite", f.name, f.v)
		}
	}
	if w.ReadFrac < 0 || w.ReadFrac > 1 {
		return fmt.Errorf("trace: read fraction %v out of [0,1]", w.ReadFrac)
	}
	if w.MeanIATUS <= 0 || w.WorkingSetPages <= 0 || w.MeanPages < 1 {
		return fmt.Errorf("trace: invalid spec %+v", w)
	}
	if w.Burstiness < 0 || w.Burstiness >= 1 {
		return fmt.Errorf("trace: burstiness %v out of [0,1)", w.Burstiness)
	}
	if w.SeqProb < 0 || w.SeqProb > 1 {
		return fmt.Errorf("trace: seq probability %v out of [0,1]", w.SeqProb)
	}
	return nil
}

// MSRWorkloads returns the eight synthetic stand-ins for the MSR
// Cambridge volumes evaluated in the paper's Figure 14. Read ratios and
// intensities follow the published per-volume summary statistics
// (approximately — see DESIGN.md).
func MSRWorkloads() []WorkloadSpec {
	return []WorkloadSpec{
		{Name: "hm_0", ReadFrac: 0.36, MeanIATUS: 2600, Burstiness: 0.45,
			WorkingSetPages: 1 << 21, ZipfS: 0.9, MeanPages: 2.2, SeqProb: 0.25},
		{Name: "mds_0", ReadFrac: 0.88, MeanIATUS: 8300, Burstiness: 0.35,
			WorkingSetPages: 1 << 22, ZipfS: 0.8, MeanPages: 2.8, SeqProb: 0.35},
		{Name: "prn_0", ReadFrac: 0.22, MeanIATUS: 1700, Burstiness: 0.50,
			WorkingSetPages: 1 << 22, ZipfS: 0.85, MeanPages: 2.5, SeqProb: 0.30},
		{Name: "proj_0", ReadFrac: 0.12, MeanIATUS: 1500, Burstiness: 0.55,
			WorkingSetPages: 1 << 23, ZipfS: 0.7, MeanPages: 4.0, SeqProb: 0.45},
		{Name: "prxy_0", ReadFrac: 0.05, MeanIATUS: 550, Burstiness: 0.60,
			WorkingSetPages: 1 << 20, ZipfS: 1.1, MeanPages: 1.6, SeqProb: 0.15},
		{Name: "rsrch_0", ReadFrac: 0.09, MeanIATUS: 3100, Burstiness: 0.40,
			WorkingSetPages: 1 << 20, ZipfS: 0.95, MeanPages: 2.0, SeqProb: 0.20},
		{Name: "src2_0", ReadFrac: 0.30, MeanIATUS: 2100, Burstiness: 0.45,
			WorkingSetPages: 1 << 21, ZipfS: 0.9, MeanPages: 2.4, SeqProb: 0.30},
		{Name: "wdev_0", ReadFrac: 0.20, MeanIATUS: 3900, Burstiness: 0.40,
			WorkingSetPages: 1 << 20, ZipfS: 1.0, MeanPages: 1.9, SeqProb: 0.20},
	}
}

// WorkloadByName returns the built-in spec with the given name.
func WorkloadByName(name string) (WorkloadSpec, error) {
	for _, w := range MSRWorkloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return WorkloadSpec{}, fmt.Errorf("trace: unknown workload %q", name)
}

// zipf draws page indices in [0, n) with approximately Zipfian
// popularity of skew s, using the continuous inverse-CDF approximation
//
//	x = (1 + u·top)^y - 1,  top = (n+1)^(1-s) - 1,  y = 1/(1-s)
//
// (x = (n+1)^u - 1 at s = 1, x = u·n at s <= 0), ranked as int64(x).
// newZipf prepares everything that depends only on (n, s) once per
// spec. The popular pages are scattered across the address space by a
// bijective hash so that hot data does not cluster at low addresses.
type zipf struct {
	n     int64
	kind  zipfKind
	top   float64 // the power branch's normaliser (n+1)^(1-s) - 1
	logN1 float64 // the s = 1 branch's normaliser ln(n+1)
	y     float64 // the power branch's exponent 1/(1-s)
	// k >= 0 certifies the power branch: b^y is b^k (1/b^k when y < 0)
	// to within zipfTol for every b the draws reach; -1 means no
	// certificate, and every power draw calls math.Pow.
	k int
}

type zipfKind uint8

const (
	zipfUniform zipfKind = iota // s <= 0
	zipfLog                     // s within 1e-9 of 1
	zipfPower                   // any other s
)

// The certified rank. math.Pow (the portable implementation, which
// every GOARCH but s390x runs) splits |y| = k + yf with |yf| <= 1/2 and
// computes b^y = Exp(yf·Log b) · b^k by square-and-multiply on b's
// mantissa, then takes the reciprocal when y < 0. When
// η = |yf|·max|ln b| is tiny, b^yf is within a factor e^±η of 1, so
// est = b^k from our own square-and-multiply chain (1/b^k when y < 0)
// brackets the exact x = fl(Pow(b, y) - 1):
//
//	x ∈ [est·(1-ρ) - 1, est·(1+ρ) - 1], with, in units of ε = 2^-53
//	and to first order in the roundings,
//	ρ <= η(1+η)   the dropped factor b^yf
//	   + (k+1)ε   Pow's chain: k-1 products, one more for Exp's factor,
//	              one reciprocal (the mantissa/exponent split is exact)
//	   + 5ε       Pow's Log and Exp (< 1 ulp = 2ε each) and yf·Log b
//	   + kε       our chain: k-1 products and one reciprocal
//	   + ε        the final -1, relative to est
//	   = η(1+η) + (2k+7)ε.
//
// The certificate demands k <= zipfMaxChain and η <= zipfMaxEta, so
// ρ < 1e-13 + 135ε < 1.2e-13. Computing each end of the band rounds
// three more times (the constant 1±zipfTol, the product, the -1), at
// most 3ε·est. zipfTol = 1e-11 exceeds the sum more than eighty times
// over. int64 conversion is monotone below 2^63 and constant above it,
// so when both ends of the band convert to the same rank, that is
// int64(x); otherwise the band holds
// an integer and the draw takes the exact expression. The built-in
// specs' η is at most 1.3e-14 (rsrch_0 and prxy_0).
const (
	zipfTol      = 1e-11
	zipfMaxChain = 64
	zipfMaxEta   = 1e-13
)

// newZipf prepares the sampler for n pages at skew s.
func newZipf(n int64, s float64) zipf {
	z := zipf{n: n, k: -1}
	switch {
	case s <= 0:
		z.kind = zipfUniform
	case math.Abs(s-1) < 1e-9:
		z.kind = zipfLog
		z.logN1 = math.Log(float64(n) + 1)
	default:
		z.kind = zipfPower
		z.top = math.Pow(float64(n)+1, 1-s) - 1
		z.y = 1 / (1 - s)
		// Split y exactly as math.Pow does. b ranges over
		// [min(1, 1+top), max(1, 1+top)], so max|ln b| = |ln(1+top)|.
		// A NaN anywhere fails the comparison and leaves k at -1.
		yi, yf := math.Modf(math.Abs(z.y))
		if yf > 0.5 {
			yf--
			yi++
		}
		eta := math.Abs(yf) * math.Abs(math.Log(1+z.top))
		if yi <= zipfMaxChain && eta <= zipfMaxEta {
			z.k = int(yi)
		}
	}
	return z
}

// rank returns int64(x) for the draw u in [0, 1): by the certified
// estimate where it fixes the rank, by the exact expression otherwise.
func (z *zipf) rank(u float64) int64 {
	switch z.kind {
	case zipfUniform:
		return int64(u * float64(z.n))
	case zipfLog:
		return int64(math.Exp(u*z.logN1) - 1)
	}
	b := 1 + float64(u*z.top)
	if z.k >= 0 {
		if lo, hi := z.band(b); lo == hi {
			return lo
		}
	}
	return int64(math.Pow(b, z.y) - 1)
}

// band returns the truncated ends of the certified band around
// x = b^y - 1 (see zipfTol). Only a certified sampler calls it.
func (z *zipf) band(b float64) (lo, hi int64) {
	est := 1.0
	for i, sq := z.k, b; i != 0; i >>= 1 {
		if i&1 == 1 {
			est *= sq
		}
		sq *= sq
	}
	if z.y < 0 {
		est = 1 / est
	}
	return int64(float64(est*(1-zipfTol)) - 1), int64(float64(est*(1+zipfTol)) - 1)
}

// lpn maps the draw u in [0, 1) to a page index.
func (z *zipf) lpn(u float64) int64 {
	rank := z.rank(u)
	if rank >= z.n {
		rank = z.n - 1
	}
	// Scatter ranks over the address space deterministically.
	return int64(mathx.Mix(uint64(rank), 0x5ca77e2) % uint64(z.n))
}

// drawThreshold returns the integer form of the Bernoulli test u < q on
// a draw u = m·2^-53, where m is the top 53 bits of the RNG word
// (mathx's Float64): m·2^-53 < q ⇔ m < q·2^53 ⇔ m < ⌈q·2^53⌉, because
// scaling by a power of two is exact and m is an integer. So
// word>>11 < drawThreshold(q) is Float64() < q, bit for bit, with no
// conversion to float. q <= 0 (or NaN) passes no draw and q >= 1 every
// draw, as the float test does.
func drawThreshold(q float64) uint64 {
	switch {
	case !(q > 0):
		return 0
	case q >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(q * (1 << 53)))
}

// Generator streams the synthetic workload; it is the Source-shaped
// form of Generate, byte-identical to it for the same (spec, n, seed).
// A fresh Generator with the same arguments replays the same stream,
// which is how the replay engine makes its preconditioning and replay
// passes without materializing the trace. Next, NextBlock and NextSpans
// all advance one stream through one draw routine (draw), so any mix of
// them yields the same spans in the same order.
type Generator struct {
	spec    WorkloadSpec
	n       int
	emitted int
	rng     mathx.Xoshiro
	now     float64
	prevEnd int64
	zipf    zipf
	// The Bernoulli tests' thresholds (see drawThreshold): burst mode,
	// read, one more page, sequential continuation.
	burst, read, grow, seq uint64
}

// NewGenerator returns a Source producing n requests for the spec,
// deterministically from seed.
func NewGenerator(spec WorkloadSpec, n int, seed uint64) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("trace: non-positive request count %d", n)
	}
	return &Generator{spec: spec, n: n, rng: mathx.NewXoshiro(seed),
		zipf:  newZipf(spec.WorkingSetPages, spec.ZipfS),
		burst: drawThreshold(spec.Burstiness), read: drawThreshold(spec.ReadFrac),
		grow: drawThreshold(1 - 1/spec.MeanPages), seq: drawThreshold(spec.SeqProb)}, nil
}

// Len returns the total number of requests the generator will yield.
func (g *Generator) Len() int { return g.n }

// MaxLPN returns the highest logical page the generator can touch
// (requests are clamped to the working set). The replay engine uses the
// bound to size dense FTL mapping state before the first request.
func (g *Generator) MaxLPN() int64 { return g.spec.WorkingSetPages - 1 }

// Next implements Source.
func (g *Generator) Next() (Request, bool, error) {
	var r [1]Request
	if g.draw(r[:], false) == 0 {
		return Request{}, false, nil
	}
	return r[0], true, nil
}

// NextBlock fills dst with the next requests, as many as fit and remain,
// and returns how many it wrote; 0 means the stream is exhausted. It
// yields what as many Next calls would, without a call per request.
func (g *Generator) NextBlock(dst []Request) int { return g.draw(dst, false) }

// NextSpans is NextBlock for a caller that needs only the pages, the
// replay engine's precondition pass: each request gets its LPN and
// Pages and a zero arrival and op. It steps the RNG past the arrival
// and op draws without computing them (three draws on either arrival
// branch), so it skips the arrival's logarithm. The stream after it is
// the one Next would have continued with, except that the arrival clock
// does not advance over the skipped requests.
func (g *Generator) NextSpans(dst []Request) int { return g.draw(dst, true) }

// draw is the generator's one draw sequence. It fills dst with the
// next min(len(dst), remaining) requests, span-only when spans is set,
// and returns how many. The RNG state, the clock and the sequential
// cursor stay in locals for the whole block and are stored back once.
func (g *Generator) draw(dst []Request, spans bool) int {
	if rest := g.n - g.emitted; len(dst) > rest {
		dst = dst[:rest]
	}
	st, now, prevEnd := g.rng, g.now, g.prevEnd
	iat, ws := g.spec.MeanIATUS, g.spec.WorkingSetPages
	for i := range dst {
		var arrive float64
		var op Op
		if spans {
			st.Uint64() // burst flag
			st.Uint64() // exponential gap
			st.Uint64() // op
		} else {
			// Arrival process: exponential base with a burst mode. The
			// float64 conversions round each product before the add, so
			// no GOARCH fuses them into a multiply-add and the stream is
			// the same everywhere.
			burst := st.Uint64()>>11 < g.burst
			gap := float64(-math.Log(1-st.Float64()) * iat)
			if burst {
				gap = float64(gap * 0.02)
			}
			now += gap
			arrive, op = now, Write
			if st.Uint64()>>11 < g.read {
				op = Read
			}
		}
		// Size: geometric with the requested mean.
		pages := 1
		for pages < 64 && st.Uint64()>>11 < g.grow {
			pages++
		}
		var lpn int64
		if st.Uint64()>>11 < g.seq && prevEnd > 0 && prevEnd+int64(pages) < ws {
			lpn = prevEnd
		} else {
			lpn = g.zipf.lpn(st.Float64())
			if lpn+int64(pages) > ws {
				lpn = ws - int64(pages)
			}
		}
		prevEnd = lpn + int64(pages)
		dst[i] = Request{ArriveUS: arrive, Op: op, LPN: lpn, Pages: pages}
	}
	g.rng, g.now, g.prevEnd = st, now, prevEnd
	g.emitted += len(dst)
	return len(dst)
}

// generatePresizeRequests caps how many requests Generate reserves up
// front (the same 1 GiB EncodeBinarySource reserves); a longer trace
// grows past it as it fills.
const generatePresizeRequests = binaryPresizeBytes / int(unsafe.Sizeof(Request{}))

// Generate produces n requests for the spec, deterministically from
// seed. A count whose []Request would not fit in an int's worth of
// bytes is refused with an error naming it rather than a panic: a
// scenario's request count reaches here unchecked.
func Generate(spec WorkloadSpec, n int, seed uint64) ([]Request, error) {
	if n > math.MaxInt/int(unsafe.Sizeof(Request{})) {
		return nil, fmt.Errorf("trace: %d requests cannot be materialized", n)
	}
	g, err := NewGenerator(spec, n, seed)
	if err != nil {
		return nil, err
	}
	out := make([]Request, 0, min(n, generatePresizeRequests))
	for g.emitted < g.n {
		if len(out) == cap(out) {
			out = slices.Grow(out, 1)
		}
		out = out[:len(out)+g.NextBlock(out[len(out):cap(out)])]
	}
	return out, nil
}

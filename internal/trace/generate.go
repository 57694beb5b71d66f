package trace

import (
	"fmt"
	"math"

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

// Validate reports spec errors.
func (w WorkloadSpec) Validate() error {
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

// zipfLPN draws a page index in [0, n) with approximately Zipfian
// popularity of skew s, using the continuous inverse-CDF approximation;
// top is its normaliser (n+1)^(1-s) - 1, which depends only on the spec
// (NewGenerator computes it once) and is used only when s is off 0 and 1.
// The popular pages are scattered across the address space by a bijective
// hash so that hot data does not cluster at low addresses.
func zipfLPN(r *mathx.Rand, n int64, s, top float64) int64 {
	u := r.Float64()
	var x float64
	switch {
	case s <= 0:
		x = u * float64(n)
	case math.Abs(s-1) < 1e-9:
		x = math.Exp(u*math.Log(float64(n)+1)) - 1
	default:
		x = math.Pow(1+u*top, 1/(1-s)) - 1
	}
	rank := int64(x)
	if rank >= n {
		rank = n - 1
	}
	// Scatter ranks over the address space deterministically.
	return int64(mathx.Mix(uint64(rank), 0x5ca77e2) % uint64(n))
}

// Generator streams the synthetic workload one request at a time; it is
// the Source-shaped form of Generate, byte-identical to it for the same
// (spec, n, seed). A fresh Generator with the same arguments replays the
// same stream, which is how the replay engine makes its preconditioning
// and replay passes without materializing the trace.
type Generator struct {
	spec    WorkloadSpec
	n       int
	emitted int
	r       *mathx.Rand
	now     float64
	prevEnd int64
	zipfTop float64 // zipfLPN's top for the spec
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
	top := math.Pow(float64(spec.WorkingSetPages)+1, 1-spec.ZipfS) - 1
	return &Generator{spec: spec, n: n, r: mathx.NewRand(seed), zipfTop: top}, nil
}

// Len returns the total number of requests the generator will yield.
func (g *Generator) Len() int { return g.n }

// MaxLPN returns the highest logical page the generator can touch
// (requests are clamped to the working set). The replay engine uses the
// bound to size dense FTL mapping state before the first request.
func (g *Generator) MaxLPN() int64 { return g.spec.WorkingSetPages - 1 }

// Next implements Source.
func (g *Generator) Next() (Request, bool, error) {
	if g.emitted >= g.n {
		return Request{}, false, nil
	}
	g.emitted++
	spec, r := g.spec, g.r
	// Arrival process: exponential base with a burst mode.
	if r.Float64() < spec.Burstiness {
		g.now += -math.Log(1-r.Float64()) * spec.MeanIATUS * 0.02
	} else {
		g.now += -math.Log(1-r.Float64()) * spec.MeanIATUS
	}
	op := Write
	if r.Float64() < spec.ReadFrac {
		op = Read
	}
	// Size: geometric with the requested mean.
	pages := 1
	p := 1 - 1/spec.MeanPages
	for pages < 64 && r.Float64() < p {
		pages++
	}
	var lpn int64
	if r.Float64() < spec.SeqProb && g.prevEnd > 0 &&
		g.prevEnd+int64(pages) < spec.WorkingSetPages {
		lpn = g.prevEnd
	} else {
		lpn = zipfLPN(r, spec.WorkingSetPages, spec.ZipfS, g.zipfTop)
		if lpn+int64(pages) > spec.WorkingSetPages {
			lpn = spec.WorkingSetPages - int64(pages)
		}
	}
	g.prevEnd = lpn + int64(pages)
	return Request{ArriveUS: g.now, Op: op, LPN: lpn, Pages: pages}, true, nil
}

// Generate produces n requests for the spec, deterministically from seed.
func Generate(spec WorkloadSpec, n int, seed uint64) ([]Request, error) {
	g, err := NewGenerator(spec, n, seed)
	if err != nil {
		return nil, err
	}
	out := make([]Request, 0, n)
	for {
		req, ok, err := g.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, req)
	}
}

// Package charlab is the characterization laboratory: it reproduces the
// measurement methodology of the paper's Section II on simulated chips —
// offset sweeps to locate ground-truth optimal read voltages, per-layer
// and per-wordline RBER scans, bit-error position maps, and the
// correlation statistics between per-voltage optima that motivate the
// sentinel-voltage design.
//
// Everything here corresponds to what the authors did on the YEESTOR
// tester with known data patterns; none of it is available to the runtime
// read path (that is the sentinel package's job).
package charlab

import (
	"fmt"
	"sync"

	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/parallel"
)

// The offset grid used to find optimal voltages, in normalized units:
// sweepLo..sweepHi in steps of sweepStep.
const (
	sweepLo   float64 = -60
	sweepHi   float64 = 30
	sweepStep float64 = 1
)

// averageReads is the number of independent reads averaged per sweep
// (reduces sensing-noise jitter in the located optimum).
const averageReads int = 2

// Lab wraps a chip with the read-noise seed of its measurements.
//
// A Lab holds no mutable measurement state: once Seed is set, any
// number of goroutines may call its measurement methods concurrently
// (the block-scan helpers below do exactly that). Do not change Seed,
// or mutate the chip, while measurements are in flight.
type Lab struct {
	Chip *flash.Chip

	// Seed drives the read-noise seeds of the lab's measurements.
	Seed uint64

	// plan is the sweep plan of the lab's offset grid on Chip, built by
	// the lab's first all-voltage sweep and shared by the later ones.
	planOnce sync.Once
	plan     *flash.SweepPlan
}

// New returns a Lab with the default seed.
func New(chip *flash.Chip) *Lab {
	return &Lab{Chip: chip, Seed: 0x1ab5eed}
}

// sweepGrid returns the sweep offset grid in ascending order.
func sweepGrid() []float64 {
	var out []float64
	for o := sweepLo; o <= sweepHi+1e-9; o += sweepStep {
		out = append(out, o)
	}
	return out
}

func (l *Lab) readSeed(wl, rep int) uint64 {
	return mathx.Mix4(l.Seed, 0, uint64(wl), uint64(rep))
}

// sweepPlan returns the plan of every all-voltage sweep the lab runs.
func (l *Lab) sweepPlan() *flash.SweepPlan {
	l.planOnce.Do(func() { l.plan = l.Chip.PlanSweep(sweepGrid()) })
	return l.plan
}

// reads runs f on averageReads reads of wordline wl, the rep'th with
// read seed readSeed(wl, first+rep). The repetitions re-read one
// wordline, so they share one handle, redrawn for each.
func (l *Lab) reads(wl, first int, f func(op *flash.ReadOp)) {
	op := l.Chip.BeginRead(wl, l.readSeed(wl, first))
	defer op.Close()
	l.readsOn(op, first, f)
}

// readsOn is reads through the caller's handle op, whatever read seed
// it was last drawn with: each repetition redraws it.
func (l *Lab) readsOn(op *flash.ReadOp, first int, f func(op *flash.ReadOp)) {
	wl := op.Wordline()
	for rep := 0; rep < averageReads; rep++ {
		op.Redraw(l.readSeed(wl, first+rep))
		f(op)
	}
}

// SweepCurves returns the offset grid and, per read voltage (index v-1),
// the total error count of voltage v at each offset on wordline wl,
// averaged over averageReads reads — the full family of the paper's
// Figure 2 curves. All voltages share each repetition's read operation
// and one planned sweep.
func (l *Lab) SweepCurves(wl int) (offs []float64, errs [][]float64) {
	op := l.Chip.BeginRead(wl, l.readSeed(wl, 0))
	defer op.Close()
	errs = l.errorSums(op)
	for _, row := range errs {
		for i := range row {
			row[i] /= float64(averageReads)
		}
	}
	return sweepGrid(), errs
}

// errorSums sums, per read voltage (index v-1), the error counts of the
// lab's offset sweep over averageReads reads through op, which each
// repetition redraws with the lab's read seeds.
func (l *Lab) errorSums(op *flash.ReadOp) [][]float64 {
	sums := make([][]float64, l.Chip.Coding().NumVoltages())
	l.readsOn(op, 0, func(op *flash.ReadOp) {
		for v, row := range op.SweepPlanned(l.sweepPlan()) {
			if sums[v] == nil {
				sums[v] = make([]float64, len(row))
			}
			for i, e := range row {
				sums[v][i] += float64(e)
			}
		}
	})
	return sums
}

// OptimalOffsets locates the ground-truth optimal offset of every read
// voltage on wordline wl by exhaustive sweep, exactly as a tester would.
func (l *Lab) OptimalOffsets(wl int) flash.Offsets {
	op := l.Chip.BeginRead(wl, l.readSeed(wl, 0))
	defer op.Close()
	return l.OptimalOffsetsOn(op)
}

// OptimalOffsetsOn is OptimalOffsets of the wordline the caller's handle
// op reads, through op: the measurement redraws it with the lab's read
// seeds, so the result is OptimalOffsets' whatever op was drawn with,
// and the caller may go on to redraw op for measurements of its own.
func (l *Lab) OptimalOffsetsOn(op *flash.ReadOp) flash.Offsets {
	offs := sweepGrid()
	out := flash.ZeroOffsets(l.Chip.Coding().NumVoltages())
	for v, sums := range l.errorSums(op) {
		out[v] = refineMinimum(offs, sums)
	}
	return out
}

// refineMinimum locates the valley floor of an error-count curve: it finds
// the grid argmin, then fits a quadratic to a window around it and takes
// the parabola's vertex. This suppresses the counting noise that would
// otherwise jitter the located optimum by several grid steps in shallow
// valleys (small populations near high boundaries).
func refineMinimum(offs, errs []float64) float64 {
	minI := 0
	for i, e := range errs {
		if e < errs[minI] {
			minI = i
		}
	}
	const window = 6
	lo := minI - window
	if lo < 0 {
		lo = 0
	}
	hi := minI + window + 1
	if hi > len(offs) {
		hi = len(offs)
	}
	if hi-lo < 5 {
		return offs[minI]
	}
	fit, err := mathx.PolyFit(offs[lo:hi], errs[lo:hi], 2)
	if err != nil || len(fit.Coef) != 3 || fit.Coef[2] <= 0 {
		return offs[minI]
	}
	vertex := -fit.Coef[1] / (2 * fit.Coef[2])
	// The vertex must stay within the window; otherwise trust the argmin.
	if vertex < offs[lo] || vertex > offs[hi-1] {
		return offs[minI]
	}
	return vertex
}

// PageRBER measures the RBER of page p on wordline wl under offsets o,
// averaged over averageReads reads.
func (l *Lab) PageRBER(wl, p int, o flash.Offsets) float64 {
	cells := float64(l.Chip.Config().CellsPerWordline)
	var sum float64
	l.reads(wl, 100, func(op *flash.ReadOp) {
		sum += float64(op.CountPageErrors(p, o)) / cells
	})
	return sum / float64(averageReads)
}

// LayerRBER holds per-layer results for Figure 3: the maximum RBER of a
// layer's wordlines at default and at per-wordline optimal voltages.
type LayerRBER struct {
	Layer      int
	DefaultMax float64
	OptimalMax float64
}

// LayerMaxRBER computes Figure 3's per-layer maxima for one page over the
// programmed wordlines of the chip.
func (l *Lab) LayerMaxRBER(page int) []LayerRBER {
	cfg := l.Chip.Config()
	out := make([]LayerRBER, cfg.Layers)
	for i := range out {
		out[i].Layer = i
		out[i].DefaultMax = -1
		out[i].OptimalMax = -1
	}
	type wlRBER struct {
		def, opt float64
		skip     bool
	}
	perWL := parallel.Map(cfg.WordlinesPerBlock(), func(wl int) wlRBER {
		if !l.Chip.IsProgrammed(wl) {
			return wlRBER{skip: true}
		}
		return wlRBER{
			def: l.PageRBER(wl, page, nil),
			opt: l.PageRBER(wl, page, l.OptimalOffsets(wl)),
		}
	})
	for wl, r := range perWL {
		if r.skip {
			continue
		}
		layer := l.Chip.LayerOf(wl)
		if r.def > out[layer].DefaultMax {
			out[layer].DefaultMax = r.def
		}
		if r.opt > out[layer].OptimalMax {
			out[layer].OptimalMax = r.opt
		}
	}
	// Drop layers with no programmed wordlines.
	kept := out[:0]
	for _, r := range out {
		if r.DefaultMax >= 0 {
			kept = append(kept, r)
		}
	}
	return kept
}

// ErrorMap summarizes the spatial structure of bit errors in a block
// (paper Figure 7): per-wordline error counts and, within each wordline,
// the error distribution across equal-width segments along the bitline
// direction.
type ErrorMap struct {
	// PerWordline[wl] is the total error count of the wordline across all
	// pages.
	PerWordline []int
	// SegmentCounts[wl][s] is the error count in segment s of the
	// wordline.
	SegmentCounts [][]int
	// Segments is the number of segments per wordline.
	Segments int
}

// UniformityChi2 returns the mean over wordlines of the chi-squared
// statistic of the segment counts against a uniform distribution, divided
// by the degrees of freedom. Values near 1 indicate errors uniformly
// spread along wordlines (the paper's key locality observation).
func (m *ErrorMap) UniformityChi2() float64 {
	var sum float64
	n := 0
	for wl := range m.SegmentCounts {
		total := m.PerWordline[wl]
		if total < m.Segments*5 { // need counts for the statistic
			continue
		}
		expect := float64(total) / float64(m.Segments)
		var chi2 float64
		for _, c := range m.SegmentCounts[wl] {
			d := float64(c) - expect
			chi2 += d * d / expect
		}
		sum += chi2 / float64(m.Segments-1)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// WordlineVariation returns the coefficient of variation of the
// per-wordline error counts: large values correspond to the dark and
// light stripes of Figure 7.
func (m *ErrorMap) WordlineVariation() float64 {
	xs := make([]float64, 0, len(m.PerWordline))
	for _, c := range m.PerWordline {
		xs = append(xs, float64(c))
	}
	mean := mathx.Mean(xs)
	if mean == 0 {
		return 0
	}
	return mathx.StdDev(xs) / mean
}

// CollectErrorMap reads every programmed wordline at default voltages
// and bins the error positions of all pages into segments.
func (l *Lab) CollectErrorMap(segments int) *ErrorMap {
	cfg := l.Chip.Config()
	nwl := cfg.WordlinesPerBlock()
	m := &ErrorMap{
		PerWordline:   make([]int, nwl),
		SegmentCounts: make([][]int, nwl),
		Segments:      segments,
	}
	cells := cfg.CellsPerWordline
	// Segment s covers cells with cell*segments/cells == s, i.e. the
	// half-open range [ceil(s*cells/segments), ceil((s+1)*cells/segments)).
	bounds := make([]int, segments+1)
	for s := range bounds {
		bounds[s] = (s*cells + segments - 1) / segments
	}
	parallel.ForEach(nwl, func(wl int) {
		m.SegmentCounts[wl] = make([]int, segments)
		if !l.Chip.IsProgrammed(wl) {
			return
		}
		read := flash.GetBitmap(cells)
		truth := flash.GetBitmap(cells)
		// Each page is its own read of the wordline: one handle, redrawn.
		op := l.Chip.BeginRead(wl, l.readSeed(wl, 200))
		defer op.Close()
		for p := 0; p < l.Chip.Coding().Bits(); p++ {
			op.Redraw(l.readSeed(wl, 200+p))
			read = op.ReadPageInto(read, p, nil)
			truth = l.Chip.TrueBitsInto(truth, wl, p)
			for s := 0; s < segments; s++ {
				n := read.XorCountRange(truth, bounds[s], bounds[s+1])
				m.SegmentCounts[wl][s] += n
				m.PerWordline[wl] += n
			}
		}
		flash.PutBitmap(truth)
		flash.PutBitmap(read)
	})
	return m
}

// CorrelationPoint is one wordline's (sentinel-voltage optimum, voltage-v
// optimum) pair for Figure 8.
type CorrelationPoint struct {
	SentinelOpt float64
	VoltOpt     float64
}

// VoltageCorrelation summarizes the linear relation between the optimum
// of one read voltage and the sentinel voltage's optimum across
// wordlines (paper Figure 8).
type VoltageCorrelation struct {
	Voltage   int
	Slope     float64
	Intercept float64
	R         float64
	Points    []CorrelationPoint
}

// CorrelationCollector accumulates per-wordline optimal-offset vectors
// across arbitrarily many stress points (the paper gathers "all wordlines
// from multiple blocks under different P/E cycles and retention time"
// before fitting Figure 8's lines).
type CorrelationCollector struct {
	numVoltages int
	sentinel    int
	optima      []flash.Offsets
}

// NewCorrelationCollector prepares a collector for the chip's coding.
func NewCorrelationCollector(coding *flash.Coding) *CorrelationCollector {
	return &CorrelationCollector{
		numVoltages: coding.NumVoltages(),
		sentinel:    coding.SentinelVoltage(),
	}
}

// Add sweeps the given wordlines at the chip's *current* stress
// state and records their optima. Call it repeatedly between aging steps.
// The sweeps fan out per wordline; optima are recorded in wls order and
// returned, one vector per wordline, each entry equal to
// OptimalOffsets(wl).
func (cc *CorrelationCollector) Add(l *Lab, wls []int) ([]flash.Offsets, error) {
	optima, err := parallel.MapErr(len(wls), func(i int) (flash.Offsets, error) {
		wl := wls[i]
		if !l.Chip.IsProgrammed(wl) {
			return nil, fmt.Errorf("charlab: wordline %d not programmed", wl)
		}
		return l.OptimalOffsets(wl), nil
	})
	if err != nil {
		return nil, err
	}
	cc.optima = append(cc.optima, optima...)
	return optima, nil
}

// AddOptima records optimum vectors measured by the caller (with
// Lab.OptimalOffsetsOn, say), as Add records its own.
func (cc *CorrelationCollector) AddOptima(optima ...flash.Offsets) {
	cc.optima = append(cc.optima, optima...)
}

// Len returns the number of collected optimum vectors.
func (cc *CorrelationCollector) Len() int { return len(cc.optima) }

// Fit returns the per-voltage linear fits against the sentinel voltage.
func (cc *CorrelationCollector) Fit() []VoltageCorrelation {
	xs := make([]float64, len(cc.optima))
	for i, o := range cc.optima {
		xs[i] = o.Get(cc.sentinel)
	}
	out := make([]VoltageCorrelation, 0, cc.numVoltages)
	for v := 1; v <= cc.numVoltages; v++ {
		ys := make([]float64, len(cc.optima))
		pts := make([]CorrelationPoint, len(cc.optima))
		for i, o := range cc.optima {
			ys[i] = o.Get(v)
			pts[i] = CorrelationPoint{SentinelOpt: xs[i], VoltOpt: ys[i]}
		}
		vc := VoltageCorrelation{Voltage: v, Points: pts}
		slope, intercept, r, err := mathx.LinearFit(xs, ys)
		if err == nil {
			vc.Slope, vc.Intercept, vc.R = slope, intercept, r
		}
		out = append(out, vc)
	}
	return out
}

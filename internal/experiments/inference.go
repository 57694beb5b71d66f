package experiments

import (
	"fmt"
	"math"

	"sentinel3d/internal/charlab"
	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/parallel"
	"sentinel3d/internal/physics"
	"sentinel3d/internal/sentinel"
)

// ---------------------------------------------------------------------------
// Figure 10: f(d) fit and inferred vs ground-truth optimum.

// Fig10Result holds the training scatter, the fitted polynomial, and an
// inferred-vs-truth series on a held-out chip.
type Fig10Result struct {
	Kind flash.Kind
	// Training scatter (error-difference rate, optimal offset).
	DS, Opts []float64
	// F is the fitted degree-5 polynomial.
	F mathx.Poly
	// Per-wordline inferred and ground-truth sentinel-voltage optima on a
	// different chip of the batch.
	Inferred, Truth []float64
}

// Fig10InferenceFit trains on one chip and validates the inference on
// another, for the given kind (the paper shows V4 of TLC and V8 of QLC).
func Fig10InferenceFit(s Scale, kind flash.Kind) (*Fig10Result, error) {
	model, err := s.TrainModel(kind, 110)
	if err != nil {
		return nil, err
	}
	// Re-collect the raw scatter for the plot.
	trainChip, err := flash.New(s.ChipConfig(kind, 110))
	if err != nil {
		return nil, err
	}
	ds, opts, err := sentinel.TrainSamples(trainChip, s.trainConfig(110))
	if err != nil {
		return nil, err
	}

	evalCfg := s.ChipConfig(kind, 210)
	eng, err := s.Engine(model, evalCfg)
	if err != nil {
		return nil, err
	}
	pe := 5000
	if kind == flash.QLC {
		pe = 1000
	}
	chip, err := s.BuildEvalChip(kind, 210, eng, pe, physics.YearHours)
	if err != nil {
		return nil, err
	}
	lab := charlab.New(chip)
	sv := model.SentinelVoltage
	res := &Fig10Result{Kind: kind, DS: ds, Opts: opts, F: model.F}
	nwl := chip.Config().WordlinesPerBlock()
	res.Inferred = make([]float64, nwl)
	res.Truth = make([]float64, nwl)
	parallel.ForEach(nwl, func(wl int) {
		sense := chip.Sense(wl, sv, 0, mathx.Mix(0xf10, uint64(wl)))
		_, inferred := eng.Infer(sense)
		res.Inferred[wl] = inferred.Get(sv)
		res.Truth[wl] = lab.OptimalOffsets(wl).Get(sv)
	})
	return res, nil
}

// MeanAbsError returns the mean |inferred - truth|.
func (r *Fig10Result) MeanAbsError() float64 {
	var diffs []float64
	for i := range r.Inferred {
		diffs = append(diffs, r.Inferred[i]-r.Truth[i])
	}
	return mathx.AbsMean(diffs)
}

// Render summarizes the fit.
func (r *Fig10Result) Render() string {
	return fmt.Sprintf("Fig 10 (%v): f(d) fit and inference validation\n"+
		"  training pairs: %d, d range [%.4f, %.4f]\n"+
		"  d-vs-optimum correlation: %.3f\n"+
		"  held-out chip: mean |inferred - truth| = %.2f (over %d wordlines)\n"+
		"  inferred-vs-truth correlation: %.3f\n",
		r.Kind, len(r.DS), minOf(r.DS), maxOf(r.DS),
		mathx.Pearson(r.DS, r.Opts),
		r.MeanAbsError(), len(r.Inferred),
		mathx.Pearson(r.Inferred, r.Truth))
}

func minOf(xs []float64) float64 { lo, _ := mathx.MinMax(xs); return lo }
func maxOf(xs []float64) float64 { _, hi := mathx.MinMax(xs); return hi }

// ---------------------------------------------------------------------------
// Table I: prediction error vs sentinel ratio.

// Table1Row is one ratio's statistics.
type Table1Row struct {
	Ratio  float64
	Mean   float64
	StdDev float64
	Count  int // sentinels per wordline at this ratio
}

// Table1Result holds the sweep for one kind.
type Table1Result struct {
	Kind flash.Kind
	Rows []Table1Row
}

// Table1SentinelRatio measures |predicted - real| of the sentinel
// voltage's optimum as the reserve ratio varies (paper ratios 0.02% to
// 0.6%, scaled to keep the same absolute counts at reduced wordline
// widths).
func Table1SentinelRatio(s Scale, kind flash.Kind) (*Table1Result, error) {
	// Ratios scale with wordline width so the sentinel *counts* match the
	// paper's (which used 147456-cell wordlines).
	base := []float64{0.0002, 0.001, 0.002, 0.004, 0.006}
	scale := 147456.0 / float64(s.Cells)
	model, err := s.TrainModel(kind, 111)
	if err != nil {
		return nil, err
	}
	// One evaluation chip; sentinels are programmed at the LARGEST ratio,
	// and smaller ratios read a prefix of the same cells (the alternation
	// parity is preserved by prefix subsets).
	maxLayout := sentinel.Layout{Ratio: base[len(base)-1] * scale, Placement: sentinel.TailOOB}
	evalCfg := s.ChipConfig(kind, 211)
	maxEng, err := sentinel.NewEngine(model, maxLayout, sentinel.DefaultCalibrator(), evalCfg)
	if err != nil {
		return nil, err
	}
	pe := 5000
	if kind == flash.QLC {
		pe = 1000
	}
	chip, err := s.BuildEvalChip(kind, 211, maxEng, pe, physics.YearHours)
	if err != nil {
		return nil, err
	}
	lab := charlab.New(chip)
	sv := model.SentinelVoltage
	nwl := chip.Config().WordlinesPerBlock()

	// Ground truth once per wordline.
	truth := make([]float64, nwl)
	senses := make([]flash.Bitmap, nwl)
	parallel.ForEach(nwl, func(wl int) {
		truth[wl] = lab.OptimalOffsets(wl).Get(sv)
		senses[wl] = chip.Sense(wl, sv, 0, mathx.Mix(0x7ab1e, uint64(wl)))
	})

	res := &Table1Result{Kind: kind}
	allIdx := maxLayout.Indices(evalCfg)
	for _, r0 := range base {
		ratio := r0 * scale
		count := int(float64(float64(s.Cells)*ratio) + 0.5)
		if count < 2 {
			count = 2
		}
		if count > len(allIdx) {
			count = len(allIdx)
		}
		idx := allIdx[:count]
		diffs := parallel.Map(nwl, func(wl int) float64 {
			d := sentinel.ErrorDiffRate(senses[wl], idx)
			pred := model.InferSentinelOffset(d)
			return math.Abs(pred - truth[wl])
		})
		res.Rows = append(res.Rows, Table1Row{
			Ratio: r0, Mean: mathx.Mean(diffs), StdDev: mathx.StdDev(diffs),
			Count: count,
		})
	}
	return res, nil
}

// Render prints the table in the paper's layout.
func (r *Table1Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f%%", row.Ratio*100),
			fmt.Sprint(row.Count),
			fmt.Sprintf("%.2f", row.Mean),
			fmt.Sprintf("%.2f", row.StdDev),
		})
	}
	return fmt.Sprintf("Table I (%v): |predicted - real| optimal sentinel voltage\n", r.Kind) +
		Table([]string{"ratio", "sentinels", "mean", "std dev"}, rows)
}

// ---------------------------------------------------------------------------
// Figure 12: state-change counts vs window position.

// Fig12Result holds the normalized state-change counts.
type Fig12Result struct {
	// PosOffsets are positions relative to each wordline's true optimum
	// (positive = Case 1 undershoot, negative = Case 2 overshoot).
	PosOffsets []float64
	// Normalized[i] is NC(pos)/NC(0) averaged over wordlines.
	Normalized []float64
}

// Fig12StateChange verifies the calibration discriminator: the number of
// cells whose sensed state changes between the default voltage and a
// probe voltage, as the probe moves around the true optimum.
func Fig12StateChange(s Scale) (*Fig12Result, error) {
	chip, err := s.BuildEvalChip(flash.QLC, 112, nil, 1000, physics.YearHours)
	if err != nil {
		return nil, err
	}
	lab := charlab.New(chip)
	sv := chip.Coding().SentinelVoltage()
	pos := []float64{-8, -4, -2, 0, 2, 4, 8}
	sums := make([]float64, len(pos))
	nwl := chip.Config().WordlinesPerBlock()
	counted := 0
	// Each wordline's normalized curve is independent; fan out, then fold
	// the per-wordline curves serially in wordline order.
	perWL := parallel.Map(nwl, func(wl int) []float64 {
		opt := lab.OptimalOffsets(wl).Get(sv)
		if opt >= -4 {
			return nil // need a clear downward move for the window to exist
		}
		// The default sense and the probes re-read one wordline: one
		// handle, redrawn with each read's seed.
		op := chip.BeginRead(wl, mathx.Mix(0x12a, uint64(wl)))
		defer op.Close()
		defSense := op.Sense(sv, 0)
		var probe flash.Bitmap
		base := -1.0
		ncs := make([]float64, len(pos))
		for i, p := range pos {
			op.Redraw(mathx.Mix3(0x12b, uint64(wl), uint64(i)))
			probe = op.SenseInto(probe, sv, opt+p)
			ncs[i] = float64(defSense.XorCount(probe))
			if p == 0 {
				base = ncs[i]
			}
		}
		if base <= 0 {
			return nil
		}
		for i := range ncs {
			ncs[i] /= base
		}
		return ncs
	})
	for _, ncs := range perWL {
		if ncs == nil {
			continue
		}
		for i := range pos {
			sums[i] += ncs[i]
		}
		counted++
	}
	if counted == 0 {
		return nil, fmt.Errorf("experiments: no wordline had a usable optimum")
	}
	res := &Fig12Result{PosOffsets: pos, Normalized: make([]float64, len(pos))}
	for i := range pos {
		res.Normalized[i] = sums[i] / float64(counted)
	}
	return res, nil
}

// Render prints the normalized curve.
func (r *Fig12Result) Render() string {
	rows := make([][]string, 0, len(r.PosOffsets))
	for i, p := range r.PosOffsets {
		caseName := "optimal"
		if p > 0 {
			caseName = "case 1 (undershoot)"
		} else if p < 0 {
			caseName = "case 2 (overshoot)"
		}
		rows = append(rows, []string{F(p), fmt.Sprintf("%.3f", r.Normalized[i]), caseName})
	}
	return "Fig 12 (QLC): normalized state-change count vs window position\n" +
		Table([]string{"position offset", "NC/NC(0)", "case"}, rows)
}

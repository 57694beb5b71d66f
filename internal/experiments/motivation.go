package experiments

import (
	"fmt"
	"slices"

	"sentinel3d/internal/charlab"
	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/parallel"
	"sentinel3d/internal/physics"
)

// ---------------------------------------------------------------------------
// Figure 2: number of bit errors vs read-voltage offset.

// Fig2Result holds one error-vs-offset sweep curve per read voltage.
type Fig2Result struct {
	Kind    flash.Kind
	Offsets []float64
	// Errors[v-1][i] is the averaged error count of voltage v at
	// Offsets[i].
	Errors [][]float64
}

// Fig2ErrorVsOffset sweeps one aged TLC wordline across the offset grid.
func Fig2ErrorVsOffset(s Scale) (*Fig2Result, error) {
	chip, err := s.BuildEvalChip(flash.TLC, 101, nil, 3000, physics.YearHours)
	if err != nil {
		return nil, err
	}
	lab := charlab.New(chip)
	res := &Fig2Result{Kind: flash.TLC}
	// One fused sweep covers every voltage from the same read operations,
	// byte-identical to the former per-voltage fan-out.
	res.Offsets, res.Errors = lab.SweepCurves(0)
	return res, nil
}

// Result reports the per-voltage minimum position and depth.
func (r *Fig2Result) Result() Result {
	rows := make([][]string, 0, len(r.Errors))
	for v, errs := range r.Errors {
		minI := slices.Index(errs, slices.Min(errs))
		rows = append(rows, []string{fmt.Sprintf("V%d", v+1),
			F(r.Offsets[minI]), F(errs[minI]), F(errs[0]), F(errs[len(errs)-1])})
	}
	return tableResult("Fig 2: bit errors vs read-voltage offset ("+r.Kind.String()+")",
		[]string{"voltage", "optimal offset", "min errors", "errors@lo", "errors@hi"}, rows)
}

// ---------------------------------------------------------------------------
// Figure 3: per-layer max MSB RBER at default vs optimal voltages.

// Fig3Row is one (P/E, layer) measurement.
type Fig3Row struct {
	PE         int
	Layer      int
	DefaultMax float64
	OptimalMax float64
}

// Fig3Result holds both chips' layer scans.
type Fig3Result struct {
	Kind flash.Kind
	// Rows is P/E-major: one run of layers per P/E count.
	Rows []Fig3Row
}

// Fig3LayerRBER measures the per-layer maximum MSB RBER after one-year
// retention across P/E counts, at default and per-wordline optimal
// voltages.
func Fig3LayerRBER(s Scale, kind flash.Kind) (*Fig3Result, error) {
	res := &Fig3Result{Kind: kind}
	for _, pe := range []int{0, 1000, 3000, 5000} {
		chip, err := s.BuildEvalChip(kind, 103, nil, pe, physics.YearHours)
		if err != nil {
			return nil, err
		}
		lab := charlab.New(chip)
		msb := chip.Coding().Bits() - 1
		for _, lr := range lab.LayerMaxRBER(msb) {
			res.Rows = append(res.Rows, Fig3Row{
				PE: pe, Layer: lr.Layer,
				DefaultMax: lr.DefaultMax, OptimalMax: lr.OptimalMax,
			})
		}
	}
	return res, nil
}

// Result summarizes per P/E count.
func (r *Fig3Result) Result() Result {
	var rows [][]string
	for lo, hi := 0, 0; lo < len(r.Rows); lo = hi {
		var defSum, optSum, defMax, optMax float64
		for ; hi < len(r.Rows) && r.Rows[hi].PE == r.Rows[lo].PE; hi++ {
			defSum += r.Rows[hi].DefaultMax
			optSum += r.Rows[hi].OptimalMax
			defMax = max(defMax, r.Rows[hi].DefaultMax)
			optMax = max(optMax, r.Rows[hi].OptimalMax)
		}
		n := float64(hi - lo)
		rows = append(rows, []string{fmt.Sprint(r.Rows[lo].PE),
			F(defSum / n), F(defMax), F(optSum / n), F(optMax)})
	}
	return tableResult(fmt.Sprintf("Fig 3 (%v): MSB RBER per layer, 1-year retention", r.Kind),
		[]string{"P/E", "default mean", "default max", "optimal mean", "optimal max"}, rows)
}

// ---------------------------------------------------------------------------
// Figures 4 and 5: temperature impact after one hour of retention.

// Fig45Result compares room- and high-temperature retention.
type Fig45Result struct {
	// RBER[page][wl] per condition.
	RoomRBER [][]float64
	HotRBER  [][]float64
	// Optimal offsets of the probed voltages per wordline.
	Voltages []int
	RoomOpt  [][]float64
	HotOpt   [][]float64
}

// Fig45Temperature runs the paper's Section II-B2 comparison on QLC: one
// hour at 25C vs one hour at 80C (inside a computer case), measuring
// per-wordline RBER of all four page types (Fig 4) and the optimal
// offsets of V3, V6, V8, V14 (Fig 5).
func Fig45Temperature(s Scale) (*Fig45Result, error) {
	res := &Fig45Result{Voltages: []int{3, 6, 8, 14}}
	run := func(tempC float64) (rber [][]float64, opts [][]float64, err error) {
		chip, err := s.BuildEvalChip(flash.QLC, 104, nil, 1000, 0)
		if err != nil {
			return nil, nil, err
		}
		chip.Age(1, tempC)
		lab := charlab.New(chip)
		bits := chip.Coding().Bits()
		nwl := chip.Config().WordlinesPerBlock()
		rber = make([][]float64, bits)
		for p := 0; p < bits; p++ {
			rber[p] = make([]float64, nwl)
		}
		opts = make([][]float64, len(res.Voltages))
		for vi := range res.Voltages {
			opts[vi] = make([]float64, nwl)
		}
		parallel.ForEach(nwl, func(wl int) {
			for p := 0; p < bits; p++ {
				rber[p][wl] = lab.PageRBER(wl, p, nil)
			}
			o := lab.OptimalOffsets(wl)
			for vi, v := range res.Voltages {
				opts[vi][wl] = o.Get(v)
			}
		})
		return rber, opts, nil
	}
	var err error
	if res.RoomRBER, res.RoomOpt, err = run(physics.RoomTempC); err != nil {
		return nil, err
	}
	if res.HotRBER, res.HotOpt, err = run(80); err != nil {
		return nil, err
	}
	return res, nil
}

// Result summarizes the temperature comparison.
func (r *Fig45Result) Result() Result {
	names := []string{"LSB", "CSB", "CSB2", "MSB"}
	rber := Table{Title: "Fig 4, RBER per page", Header: []string{"page", "room mean RBER", "hot mean RBER"}}
	for p := range r.RoomRBER {
		rber.Rows = append(rber.Rows, []string{names[p],
			F(mathx.Mean(r.RoomRBER[p])), F(mathx.Mean(r.HotRBER[p]))})
	}
	opt := Table{Title: "Fig 5, optimal offsets", Header: []string{"voltage", "room mean offset", "hot mean offset"}}
	for vi, v := range r.Voltages {
		opt.Rows = append(opt.Rows, []string{fmt.Sprintf("V%d", v),
			F(mathx.Mean(r.RoomOpt[vi])), F(mathx.Mean(r.HotOpt[vi]))})
	}
	return Result{Title: "Figs 4-5 (QLC): 1h retention, room vs 80C", Tables: []Table{rber, opt}}
}

// ---------------------------------------------------------------------------
// Figure 6: optimal read voltages per layer.

// Fig6Result holds the per-layer mean optimal offset of each voltage.
type Fig6Result struct {
	// Opt[v-1][layer].
	Opt [][]float64
}

// Fig6LayerOptima sweeps a QLC block at P/E 3000 with one-year retention.
func Fig6LayerOptima(s Scale) (*Fig6Result, error) {
	chip, err := s.BuildEvalChip(flash.QLC, 106, nil, 3000, physics.YearHours)
	if err != nil {
		return nil, err
	}
	lab := charlab.New(chip)
	cfg := chip.Config()
	nv := chip.Coding().NumVoltages()
	res := &Fig6Result{Opt: make([][]float64, nv)}
	sums := make([][]float64, nv)
	counts := make([]int, cfg.Layers)
	for v := range sums {
		sums[v] = make([]float64, cfg.Layers)
		res.Opt[v] = make([]float64, cfg.Layers)
	}
	optima := parallel.Map(cfg.WordlinesPerBlock(), func(wl int) flash.Offsets {
		return lab.OptimalOffsets(wl)
	})
	for wl, o := range optima {
		layer := chip.LayerOf(wl)
		for i := 0; i < nv; i++ {
			sums[i][layer] += o[i]
		}
		counts[layer]++
	}
	for v := 0; v < nv; v++ {
		for l := 0; l < cfg.Layers; l++ {
			if counts[l] > 0 {
				res.Opt[v][l] = sums[v][l] / float64(counts[l])
			}
		}
	}
	return res, nil
}

// Result reports per-voltage layer ranges.
func (r *Fig6Result) Result() Result {
	rows := make([][]string, 0, len(r.Opt))
	for v, per := range r.Opt {
		lo, hi := mathx.MinMax(per)
		rows = append(rows, []string{fmt.Sprintf("V%d", v+1), F(mathx.Mean(per)), F(lo), F(hi)})
	}
	return tableResult("Fig 6 (QLC, P/E 3000, 1 yr): optimal offsets across layers",
		[]string{"voltage", "mean", "min layer", "max layer"}, rows)
}

// ---------------------------------------------------------------------------
// Figure 7: bit-error position map.

// Fig7Result summarizes the spatial error structure. It is a value
// holding the map by value, so its %v (the scenario cell's digest)
// prints the map's fields, never a heap address.
type Fig7Result struct {
	Map charlab.ErrorMap
	// UniformityChi2 ~ 1 means errors uniform along wordlines; the
	// wordline coefficient of variation captures the stripes.
	UniformityChi2    float64
	WordlineVariation float64
}

// Fig7ErrorMap collects the error-position map of a QLC block at P/E 3000
// with one-year retention.
func Fig7ErrorMap(s Scale) (Fig7Result, error) {
	chip, err := s.BuildEvalChip(flash.QLC, 107, nil, 3000, physics.YearHours)
	if err != nil {
		return Fig7Result{}, err
	}
	lab := charlab.New(chip)
	m := lab.CollectErrorMap(16)
	return Fig7Result{
		Map:               *m,
		UniformityChi2:    m.UniformityChi2(),
		WordlineVariation: m.WordlineVariation(),
	}, nil
}

// Result reports the two locality statistics.
func (r Fig7Result) Result() Result {
	return Result{
		Title: "Fig 7 (QLC): error-position structure",
		Headlines: []Headline{
			{Name: "along-wordline uniformity (reduced chi^2, ~1 = uniform)", Value: r.UniformityChi2},
			{Name: "across-wordline variation (CV of per-WL error counts)", Value: r.WordlineVariation},
		},
	}
}

// ---------------------------------------------------------------------------
// Figure 8: correlation between per-voltage optima and the sentinel
// voltage's optimum.

// Fig8Result holds the fitted correlation lines.
type Fig8Result struct {
	Correlations []charlab.VoltageCorrelation
}

// Fig8Correlation gathers optima across stress points on a QLC chip and
// fits each voltage's optimum against V8's.
func Fig8Correlation(s Scale) (*Fig8Result, error) {
	cfg := s.ChipConfig(flash.QLC, 108)
	chip, err := flash.New(cfg)
	if err != nil {
		return nil, err
	}
	var wls []int
	for wl := 0; wl < cfg.WordlinesPerBlock(); wl += 2 {
		wls = append(wls, wl)
	}
	// Per-wordline RNG streams keyed by wordline index keep the programmed
	// data identical at any worker count.
	parallel.ForEach(len(wls), func(i int) {
		rng := mathx.NewRand(mathx.Mix(881, uint64(wls[i])))
		chip.ProgramRandom(wls[i], rng)
	})
	lab := charlab.New(chip)
	cc := charlab.NewCorrelationCollector(chip.Coding())
	for i, pt := range s.trainPoints() {
		st := physics.Stress{PECycles: pt.PECycles}
		st = st.Aged(chip.Model().P, pt.Hours, pt.TempC)
		chip.SetStress(st)
		lab.Seed = mathx.Mix(12345, uint64(i))
		if _, err := cc.Add(lab, wls); err != nil {
			return nil, err
		}
	}
	return &Fig8Result{Correlations: cc.Fit()}, nil
}

// Result reports slopes and correlation coefficients.
func (r *Fig8Result) Result() Result {
	rows := make([][]string, 0, len(r.Correlations))
	for _, vc := range r.Correlations {
		rows = append(rows, []string{fmt.Sprintf("V%d", vc.Voltage),
			fmt.Sprintf("%.3f", vc.Slope), fmt.Sprintf("%.2f", vc.Intercept), fmt.Sprintf("%.3f", vc.R)})
	}
	return tableResult("Fig 8 (QLC): per-voltage optimum vs V8 optimum",
		[]string{"voltage", "slope", "intercept", "r"}, rows)
}

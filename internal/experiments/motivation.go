package experiments

import (
	"fmt"
	"math"

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

// Render returns a text summary (per-voltage minimum position and depth).
func (r *Fig2Result) Render() string {
	rows := make([][]string, 0, len(r.Errors))
	for v, errs := range r.Errors {
		minI := 0
		for i, e := range errs {
			if e < errs[minI] {
				minI = i
			}
		}
		rows = append(rows, []string{
			fmt.Sprintf("V%d", v+1),
			F(r.Offsets[minI]),
			F(errs[minI]),
			F(errs[0]),
			F(errs[len(errs)-1]),
		})
	}
	return "Fig 2: bit errors vs read-voltage offset (" + r.Kind.String() + ")\n" +
		Table([]string{"voltage", "optimal offset", "min errors", "errors@lo", "errors@hi"}, rows)
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

// Render summarizes per P/E count.
func (r *Fig3Result) Render() string {
	type agg struct {
		defMax, optMax float64
		defSum, optSum float64
		n              int
	}
	byPE := map[int]*agg{}
	var pes []int
	for _, row := range r.Rows {
		a := byPE[row.PE]
		if a == nil {
			a = &agg{}
			byPE[row.PE] = a
			pes = append(pes, row.PE)
		}
		a.n++
		a.defSum += row.DefaultMax
		a.optSum += row.OptimalMax
		if row.DefaultMax > a.defMax {
			a.defMax = row.DefaultMax
		}
		if row.OptimalMax > a.optMax {
			a.optMax = row.OptimalMax
		}
	}
	rows := make([][]string, 0, len(pes))
	for _, pe := range pes {
		a := byPE[pe]
		rows = append(rows, []string{
			fmt.Sprint(pe),
			F(a.defSum / float64(a.n)), F(a.defMax),
			F(a.optSum / float64(a.n)), F(a.optMax),
		})
	}
	return fmt.Sprintf("Fig 3 (%v): MSB RBER per layer, 1-year retention\n", r.Kind) +
		Table([]string{"P/E", "default mean", "default max", "optimal mean", "optimal max"}, rows)
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
			for vi, v := range res.Voltages {
				opts[vi][wl] = lab.OptimalOffset(wl, v)
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

// Render summarizes the temperature comparison.
func (r *Fig45Result) Render() string {
	names := []string{"LSB", "CSB", "CSB2", "MSB"}
	rows := make([][]string, 0, len(r.RoomRBER))
	for p := range r.RoomRBER {
		rows = append(rows, []string{
			names[p],
			F(mathx.Mean(r.RoomRBER[p])),
			F(mathx.Mean(r.HotRBER[p])),
		})
	}
	out := "Fig 4 (QLC): RBER after 1h retention, room vs 80C\n" +
		Table([]string{"page", "room mean RBER", "hot mean RBER"}, rows)
	rows = rows[:0]
	for vi, v := range r.Voltages {
		rows = append(rows, []string{
			fmt.Sprintf("V%d", v),
			F(mathx.Mean(r.RoomOpt[vi])),
			F(mathx.Mean(r.HotOpt[vi])),
		})
	}
	return out + "Fig 5 (QLC): optimal offsets after 1h, room vs 80C\n" +
		Table([]string{"voltage", "room mean offset", "hot mean offset"}, rows)
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

// Render prints per-voltage layer ranges.
func (r *Fig6Result) Render() string {
	rows := make([][]string, 0, len(r.Opt))
	for v, per := range r.Opt {
		lo, hi := mathx.MinMax(per)
		rows = append(rows, []string{
			fmt.Sprintf("V%d", v+1), F(mathx.Mean(per)), F(lo), F(hi),
		})
	}
	return "Fig 6 (QLC, P/E 3000, 1 yr): optimal offsets across layers\n" +
		Table([]string{"voltage", "mean", "min layer", "max layer"}, rows)
}

// ---------------------------------------------------------------------------
// Figure 7: bit-error position map.

// Fig7Result summarizes the spatial error structure.
type Fig7Result struct {
	Map *charlab.ErrorMap
	// UniformityChi2 ~ 1 means errors uniform along wordlines; the
	// wordline coefficient of variation captures the stripes.
	UniformityChi2    float64
	WordlineVariation float64
}

// Fig7ErrorMap collects the error-position map of a QLC block at P/E 3000
// with one-year retention.
func Fig7ErrorMap(s Scale) (*Fig7Result, error) {
	chip, err := s.BuildEvalChip(flash.QLC, 107, nil, 3000, physics.YearHours)
	if err != nil {
		return nil, err
	}
	lab := charlab.New(chip)
	m := lab.CollectErrorMap(16)
	return &Fig7Result{
		Map:               m,
		UniformityChi2:    m.UniformityChi2(),
		WordlineVariation: m.WordlineVariation(),
	}, nil
}

// Render prints the two locality statistics.
func (r *Fig7Result) Render() string {
	return fmt.Sprintf("Fig 7 (QLC): error-position structure\n"+
		"  along-wordline uniformity (reduced chi^2, ~1 = uniform): %.3f\n"+
		"  across-wordline variation (CV of per-WL error counts):   %.3f\n",
		r.UniformityChi2, r.WordlineVariation)
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

// Render prints slopes and correlation coefficients.
func (r *Fig8Result) Render() string {
	rows := make([][]string, 0, len(r.Correlations))
	for _, vc := range r.Correlations {
		rows = append(rows, []string{
			fmt.Sprintf("V%d", vc.Voltage),
			fmt.Sprintf("%.3f", vc.Slope),
			fmt.Sprintf("%.2f", vc.Intercept),
			fmt.Sprintf("%.3f", vc.R),
		})
	}
	return "Fig 8 (QLC): per-voltage optimum vs V8 optimum\n" +
		Table([]string{"voltage", "slope", "intercept", "r"}, rows)
}

// StrongCount returns how many voltages (excluding V1) correlate with
// |r| above the threshold.
func (r *Fig8Result) StrongCount(threshold float64) int {
	n := 0
	for _, vc := range r.Correlations {
		if vc.Voltage == 1 {
			continue
		}
		if math.Abs(vc.R) >= threshold {
			n++
		}
	}
	return n
}

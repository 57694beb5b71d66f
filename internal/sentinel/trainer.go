package sentinel

import (
	"fmt"

	"sentinel3d/internal/charlab"
	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/parallel"
	"sentinel3d/internal/physics"
)

// StressPoint is one (P/E, retention) condition visited during training.
type StressPoint struct {
	PECycles int
	Hours    float64
	TempC    float64
}

// TrainConfig controls the manufacturing-time characterization that fits
// the inference model (paper Section III-D: "one or several flash chips
// are randomly selected for evaluation and analysis ... then the
// relationships are programmed into all the chips of the same type").
type TrainConfig struct {
	// Points is the stress grid to visit.
	Points []StressPoint
	// WordlinesPerPoint is how many wordlines are sampled per point.
	WordlinesPerPoint int
	// Layout is the sentinel layout the runtime will use.
	Layout Layout
	// Seed drives data patterns and read seeds.
	Seed uint64
	// TempBandsC optionally lists temperature-band upper edges in C
	// (ascending, e.g. {40, 90}). When set, one correlation table is
	// trained per band at the band's midpoint read temperature (paper
	// Section III-D). The error-difference fit f(d) is temperature-
	// independent and trained once.
	TempBandsC []float64
}

// Fixed shape of the trained model: f(d) is a degree-polyDegree
// polynomial (the paper uses 5), and every d measurement averages
// measureReads sentinel senses.
const (
	polyDegree   int = 5
	measureReads int = 2
)

func (tc TrainConfig) validate() error {
	if err := tc.Layout.Validate(); err != nil {
		return err
	}
	if len(tc.Points) == 0 {
		return fmt.Errorf("sentinel: no stress points")
	}
	if tc.WordlinesPerPoint < 1 {
		return fmt.Errorf("sentinel: WordlinesPerPoint must be positive")
	}
	return nil
}

// Train fits a Model on the given chip. The chip is reprogrammed with
// random data plus the sentinel pattern, then driven through the stress
// grid; at each point the error-difference rate of each sampled wordline
// is measured at the default sentinel voltage and paired with the
// ground-truth optimal offset located by sweep. The per-voltage
// correlations are collected from the same sweeps.
//
// The chip's contents and stress state are clobbered.
func Train(chip *flash.Chip, tc TrainConfig) (*Model, error) {
	cc := charlab.NewCorrelationCollector(chip.Coding())
	ds, opts, err := collect(chip, tc, cc)
	if err != nil {
		return nil, err
	}
	return fit(chip, tc, ds, opts, cc)
}

// fit fits the Model to collect's (d, sentinel optimum) pairs and the
// optimum vectors in cc, training the temperature bands when tc asks.
func fit(chip *flash.Chip, tc TrainConfig, ds, opts []float64, cc *charlab.CorrelationCollector) (*Model, error) {
	f, err := mathx.PolyFit(ds, opts, polyDegree)
	if err != nil {
		return nil, fmt.Errorf("sentinel: fitting f(d): %w", err)
	}
	dLo, dHi := mathx.MinMax(ds)
	cors := cc.Fit()
	rels := make([]LinearRel, len(cors))
	for i, vc := range cors {
		rels[i] = LinearRel{
			Voltage: vc.Voltage, Slope: vc.Slope,
			Intercept: vc.Intercept, R: vc.R,
		}
	}
	m := &Model{
		Kind:            chip.Config().Kind,
		SentinelVoltage: chip.Coding().SentinelVoltage(),
		F:               f,
		DLo:             dLo,
		DHi:             dHi,
		Corr:            rels,
	}
	if len(tc.TempBandsC) > 0 {
		bands, err := trainBands(chip, tc)
		if err != nil {
			return nil, err
		}
		m.Bands = bands
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// trainBands fits one correlation table per temperature band by sweeping
// the already-programmed sample wordlines at each band's midpoint read
// temperature, over a thinned stress grid.
func trainBands(chip *flash.Chip, tc TrainConfig) ([]TempBand, error) {
	cfg := chip.Config()
	coding := chip.Coding()
	nwl := cfg.WordlinesPerBlock()
	if tc.WordlinesPerPoint > nwl {
		tc.WordlinesPerPoint = nwl
	}
	wls := make([]int, tc.WordlinesPerPoint)
	for i := range wls {
		wls[i] = i * nwl / tc.WordlinesPerPoint
	}
	lab := charlab.New(chip)
	var bands []TempBand
	lo := physics.RoomTempC - 10
	for bi, hi := range tc.TempBandsC {
		if bi > 0 {
			lo = tc.TempBandsC[bi-1]
		}
		mid := (lo + hi) / 2
		chip.SetReadTemperature(mid)
		cc := charlab.NewCorrelationCollector(coding)
		for pi, pt := range tc.Points {
			if pi%2 == 1 {
				continue // thinned grid per band
			}
			st := physics.Stress{PECycles: pt.PECycles}
			st = st.Aged(chip.Model().P, pt.Hours, pt.TempC).AtReadTemp(mid)
			chip.SetStress(st)
			lab.Seed = mathx.Mix3(tc.Seed, 0xba2d, uint64(bi*100+pi))
			if _, err := cc.Add(lab, wls); err != nil {
				return nil, err
			}
		}
		cors := cc.Fit()
		rels := make([]LinearRel, len(cors))
		for i, vc := range cors {
			rels[i] = LinearRel{Voltage: vc.Voltage, Slope: vc.Slope,
				Intercept: vc.Intercept, R: vc.R}
		}
		bands = append(bands, TempBand{MaxTempC: hi, Corr: rels})
	}
	chip.SetReadTemperature(physics.RoomTempC)
	return bands, nil
}

// TrainSamples exposes the raw (d, optimal offset) pairs behind Figure
// 10; it runs the same measurement as Train without fitting.
func TrainSamples(chip *flash.Chip, tc TrainConfig) (ds, opts []float64, err error) {
	return collect(chip, tc, nil)
}

// collect programs sample wordlines, walks the stress grid, and gathers
// (d, sentinel optimum) pairs; when cc is non-nil it also accumulates
// full optimal-offset vectors for the correlation fit.
func collect(chip *flash.Chip, tc TrainConfig, cc *charlab.CorrelationCollector) (ds, opts []float64, err error) {
	if err := tc.validate(); err != nil {
		return nil, nil, err
	}
	cfg := chip.Config()
	coding := chip.Coding()
	sv := coding.SentinelVoltage()
	indices := tc.Layout.Indices(cfg)
	rng := mathx.NewRand(tc.Seed)

	// Sample wordlines spread across the block (and therefore layers).
	nwl := cfg.WordlinesPerBlock()
	if tc.WordlinesPerPoint > nwl {
		tc.WordlinesPerPoint = nwl
	}
	wls := make([]int, tc.WordlinesPerPoint)
	for i := range wls {
		wls[i] = i * nwl / tc.WordlinesPerPoint
	}

	// Program sampled wordlines once: random data + sentinel pattern.
	states := make([]uint8, cfg.CellsPerWordline)
	for _, wl := range wls {
		for i := range states {
			states[i] = uint8(rng.Intn(coding.States()))
		}
		tc.Layout.ApplyPattern(states, indices, sv)
		if err := chip.ProgramStates(wl, states); err != nil {
			return nil, nil, err
		}
	}

	lab := charlab.New(chip)
	model := chip.Model()
	type measurement struct {
		d      float64
		optima flash.Offsets
	}
	for pi, pt := range tc.Points {
		st := physics.Stress{PECycles: pt.PECycles}
		st = st.Aged(model.P, pt.Hours, pt.TempC)
		chip.SetStress(st)
		// Vary the lab's read seeds per point so sweeps are independent.
		lab.Seed = mathx.Mix(tc.Seed, uint64(pi))
		// Each sampled wordline is measured through one handle: the
		// all-voltage sweep locating its optima redraws it with the lab's
		// seeds, then the repeated senses of d with their own, so each
		// answers as a fresh handle would. The sentinel voltage's optimum
		// is the d pair's; the whole vector goes to the collector.
		ms := parallel.Map(len(wls), func(wi int) measurement {
			seed := func(rep int) uint64 { return mathx.Mix4(tc.Seed, uint64(pi), uint64(wi), uint64(rep)) }
			op := chip.BeginRead(wls[wi], seed(0))
			defer op.Close()
			m := measurement{optima: lab.OptimalOffsetsOn(op)}
			sense := flash.GetBitmap(cfg.CellsPerWordline)
			for rep := 0; rep < measureReads; rep++ {
				op.Redraw(seed(rep))
				sense = op.SenseInto(sense, sv, 0)
				m.d += ErrorDiffRate(sense, indices)
			}
			flash.PutBitmap(sense)
			m.d /= float64(measureReads)
			return m
		})
		for _, m := range ms {
			if cc != nil {
				cc.AddOptima(m.optima)
			}
			ds = append(ds, m.d)
			opts = append(opts, m.optima.Get(sv))
		}
	}
	return ds, opts, nil
}

package sentinel

import (
	"reflect"
	"testing"

	"sentinel3d/internal/charlab"
	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/physics"
)

// collectPerRead is collect with a handle per measurement: the
// collector sweeps each point's wordlines on handles of its own
// (CorrelationCollector.Add), and each wordline's d is measured on a
// fresh handle after them. It is the reference for collect's one handle
// per (wordline, point).
func collectPerRead(chip *flash.Chip, tc TrainConfig, cc *charlab.CorrelationCollector) (ds, opts []float64, err error) {
	cfg := chip.Config()
	coding := chip.Coding()
	sv := coding.SentinelVoltage()
	indices := tc.Layout.Indices(cfg)
	rng := mathx.NewRand(tc.Seed)
	nwl := cfg.WordlinesPerBlock()
	if tc.WordlinesPerPoint > nwl {
		tc.WordlinesPerPoint = nwl
	}
	wls := make([]int, tc.WordlinesPerPoint)
	for i := range wls {
		wls[i] = i * nwl / tc.WordlinesPerPoint
	}
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
	for pi, pt := range tc.Points {
		chip.SetStress(physics.Stress{PECycles: pt.PECycles}.Aged(chip.Model().P, pt.Hours, pt.TempC))
		lab.Seed = mathx.Mix(tc.Seed, uint64(pi))
		var optima []flash.Offsets
		if cc != nil {
			if optima, err = cc.Add(lab, wls); err != nil {
				return nil, nil, err
			}
		}
		for wi, wl := range wls {
			var d float64
			for rep := 0; rep < measureReads; rep++ {
				sense := chip.Sense(wl, sv, 0, mathx.Mix4(tc.Seed, uint64(pi), uint64(wi), uint64(rep)))
				d += ErrorDiffRate(sense, indices)
				flash.PutBitmap(sense)
			}
			ds = append(ds, d/float64(measureReads))
			if optima != nil {
				opts = append(opts, optima[wi].Get(sv))
			} else {
				opts = append(opts, lab.OptimalOffsets(wl).Get(sv))
			}
		}
	}
	return ds, opts, nil
}

// TestTrainSharedHandleMatchesPerRead: collect measures each
// (wordline, point) through one handle — the sweeps of every voltage,
// then the d senses, each redrawing it — and must fit exactly the Model
// of a handle per measurement, temperature bands included; TrainSamples
// (the sentinel voltage swept alone) must return exactly the reference
// pairs.
func TestTrainSharedHandleMatchesPerRead(t *testing.T) {
	tc := quickTrainConfig()
	tc.Points = tc.Points[:4]
	tc.WordlinesPerPoint = 6
	tc.TempBandsC = []float64{40, 90}
	got, err := Train(flash.MustNew(cfg16k()), tc)
	if err != nil {
		t.Fatal(err)
	}
	chip := flash.MustNew(cfg16k())
	cc := charlab.NewCorrelationCollector(chip.Coding())
	ds, opts, err := collectPerRead(chip, tc, cc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fit(chip, tc, ds, opts, cc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shared-handle model %+v\nper-read model %+v", got, want)
	}

	gotDs, gotOpts, err := TrainSamples(flash.MustNew(cfg16k()), tc)
	if err != nil {
		t.Fatal(err)
	}
	wantDs, wantOpts, err := collectPerRead(flash.MustNew(cfg16k()), tc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotDs, wantDs) || !reflect.DeepEqual(gotOpts, wantOpts) {
		t.Fatalf("TrainSamples (%v, %v), per read (%v, %v)", gotDs, gotOpts, wantDs, wantOpts)
	}
}

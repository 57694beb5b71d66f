package sentinel

import (
	"math"
	"testing"

	"sentinel3d/internal/charlab"
	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/physics"
)

// quickTrainConfig is a reduced grid that keeps unit tests fast.
// testLayout keeps the paper's sentinel *count* (~300, as on a 147k-cell
// physical wordline at 0.2%) on the small 16k-cell test wordlines.
func testLayout() Layout {
	return Layout{Ratio: 0.02, Placement: TailOOB}
}

func quickTrainConfig() TrainConfig {
	tc := DefaultTrainConfig()
	tc.Layout = testLayout()
	tc.Points = []StressPoint{
		{0, 24, physics.RoomTempC},
		{1000, 720, physics.RoomTempC},
		{1000, 4380, physics.RoomTempC},
		{3000, 2000, physics.RoomTempC},
		{1000, physics.YearHours, physics.RoomTempC},
		{3000, physics.YearHours, physics.RoomTempC},
	}
	tc.WordlinesPerPoint = 16
	return tc
}

func trainChip(t testing.TB) (*flash.Chip, *Model) {
	t.Helper()
	chip := flash.MustNew(cfg16k())
	m, err := Train(chip, quickTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	return chip, m
}

func TestTrainProducesValidModel(t *testing.T) {
	_, m := trainChip(t)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Kind != flash.QLC || m.SentinelVoltage != 8 {
		t.Fatalf("model identity wrong: %v V%d", m.Kind, m.SentinelVoltage)
	}
	if m.F.Degree() != 5 {
		t.Fatalf("f degree = %d, want 5", m.F.Degree())
	}
	if len(m.Corr) != 15 {
		t.Fatalf("got %d correlations", len(m.Corr))
	}
	// d range must include negative values (retention-dominated).
	if m.DLo >= 0 {
		t.Fatalf("training d range [%v, %v] has no negative side", m.DLo, m.DHi)
	}
}

func TestTrainedFIsMonotoneDecreasingInD(t *testing.T) {
	// More down errors (more negative d) means a larger left shift and a
	// more negative optimum, so f should decrease as d increases... no:
	// d = up - down; retention makes d negative and the optimum negative,
	// so f must *increase* with d (less negative d -> less negative
	// optimum). Verify over the trained domain.
	_, m := trainChip(t)
	prev := math.Inf(-1)
	// Scan the interior of the fitted domain; degree-5 fits wiggle at the
	// sparse edges.
	lo := m.DLo + 0.08*(m.DHi-m.DLo)
	hi := m.DHi - 0.05*(m.DHi-m.DLo)
	for i := 0; i <= 20; i++ {
		d := lo + (hi-lo)*float64(i)/20
		v := m.F.Eval(d)
		if v < prev-4 { // allow small fit wiggles
			t.Fatalf("f not increasing at d=%v: %v after %v", d, v, prev)
		}
		if v > prev {
			prev = v
		}
	}
	// And f of a strongly negative d is a strongly negative offset.
	if m.F.Eval(m.DLo) > -5 {
		t.Fatalf("f(dLo) = %v, want clearly negative", m.F.Eval(m.DLo))
	}
}

func TestTrainCorrelationsMostlyStrong(t *testing.T) {
	_, m := trainChip(t)
	strong := 0
	for _, rel := range m.Corr {
		if rel.Voltage == 1 {
			continue // excluded in the paper: erase-state variation
		}
		if rel.R > 0.8 {
			strong++
		}
	}
	if strong < 10 {
		t.Fatalf("only %d/14 correlations strong", strong)
	}
}

func TestTrainSamplesMatchFitDomain(t *testing.T) {
	chip := flash.MustNew(cfg16k())
	tc := quickTrainConfig()
	ds, opts, err := TrainSamples(chip, tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != len(opts) || len(ds) != len(tc.Points)*tc.WordlinesPerPoint {
		t.Fatalf("got %d/%d samples", len(ds), len(opts))
	}
	// The samples must show the Fig. 10 relation: d and optimum
	// positively correlated.
	if r := mathx.Pearson(ds, opts); r < 0.7 {
		t.Fatalf("d vs optimum correlation %v too weak", r)
	}
}

func TestTrainConfigValidation(t *testing.T) {
	chip := flash.MustNew(cfg16k())
	tc := quickTrainConfig()
	tc.Points = nil
	if _, err := Train(chip, tc); err == nil {
		t.Fatal("accepted empty stress grid")
	}
	tc = quickTrainConfig()
	tc.WordlinesPerPoint = 0
	if _, err := Train(chip, tc); err == nil {
		t.Fatal("accepted zero wordlines")
	}
	tc = quickTrainConfig()
	tc.Layout.Ratio = 0
	if _, err := Train(chip, tc); err == nil {
		t.Fatal("accepted bad layout")
	}
}

// TestInferenceAccuracyOnFreshChip is the core end-to-end property: a
// model trained on one chip infers near-optimal sentinel offsets on a
// *different* chip of the same batch (different seed), under a stress the
// trainer never saw exactly.
func TestInferenceAccuracyEndToEnd(t *testing.T) {
	_, m := trainChip(t)
	engineCfg := cfg16k()
	engineCfg.Seed = 999 // a different chip of the same batch
	chip := flash.MustNew(engineCfg)
	eng, err := NewEngine(m, testLayout(), DefaultCalibrator(), engineCfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRand(5)
	coding := chip.Coding()
	states := make([]uint8, engineCfg.CellsPerWordline)
	nWL := engineCfg.WordlinesPerBlock()
	for wl := 0; wl < nWL; wl++ {
		for i := range states {
			states[i] = uint8(rng.Intn(coding.States()))
		}
		eng.Prepare(states)
		if err := chip.ProgramStates(wl, states); err != nil {
			t.Fatal(err)
		}
	}
	chip.Cycle(2000)
	chip.Age(6000, physics.RoomTempC)

	lab := charlab.New(chip)
	var absErr []float64
	for wl := 0; wl < nWL; wl++ {
		sense := chip.Sense(wl, m.SentinelVoltage, 0, mathx.Mix(42, uint64(wl)))
		_, inferred := eng.Infer(sense)
		truth := lab.OptimalOffset(wl, m.SentinelVoltage)
		absErr = append(absErr, math.Abs(inferred.Get(m.SentinelVoltage)-truth))
	}
	mean := mathx.Mean(absErr)
	// Paper Table I reports mean |predicted - real| = 1.79 at 0.2% on QLC
	// with 147k-cell wordlines; these 16k-cell test wordlines add sweep
	// and sampling noise, so the unit test only guards against gross
	// breakage. The full-size bench (Table I experiment) checks the
	// paper-scale number.
	if mean > 7 {
		t.Fatalf("mean inference error %v too large", mean)
	}
	if mathx.Median(absErr) > 6 {
		t.Fatalf("median inference error %v too large", mathx.Median(absErr))
	}
}

func TestEngineValidation(t *testing.T) {
	_, m := trainChip(t)
	cfg := cfg16k()
	if _, err := NewEngine(nil, DefaultLayout(), DefaultCalibrator(), cfg); err == nil {
		t.Fatal("accepted nil model")
	}
	if _, err := NewEngine(m, Layout{Ratio: 0}, DefaultCalibrator(), cfg); err == nil {
		t.Fatal("accepted bad layout")
	}
	if _, err := NewEngine(m, DefaultLayout(), Calibrator{}, cfg); err == nil {
		t.Fatal("accepted bad calibrator")
	}
	tlcCfg := cfg
	tlcCfg.Kind = flash.TLC
	if _, err := NewEngine(m, DefaultLayout(), DefaultCalibrator(), tlcCfg); err == nil {
		t.Fatal("accepted QLC model on TLC chip")
	}
}

func TestEnginePrepareAndInferRoundTrip(t *testing.T) {
	_, m := trainChip(t)
	cfg := cfg16k()
	cfg.Seed = 321
	chip := flash.MustNew(cfg)
	eng, err := NewEngine(m, testLayout(), DefaultCalibrator(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	states := make([]uint8, cfg.CellsPerWordline)
	eng.Prepare(states)
	if err := chip.ProgramStates(0, states); err != nil {
		t.Fatal(err)
	}
	// Fresh chip: d should be ~0 and the inferred offsets modest.
	sense := chip.Sense(0, m.SentinelVoltage, 0, 7)
	d, ofs := eng.Infer(sense)
	if math.Abs(d) > 0.05 {
		t.Fatalf("fresh d = %v, want ~0", d)
	}
	// Fresh inferred offsets stay moderate. (They need not be ~0: the
	// trainer's grid is retention-dominated, so f(0) sits a few units
	// negative — harmless, because fresh default reads succeed and
	// inference never runs.)
	for v := 2; v <= 15; v++ {
		if math.Abs(ofs.Get(v)) > 25 {
			t.Fatalf("fresh inferred offset V%d = %v implausibly large",
				v, ofs.Get(v))
		}
	}
}

func TestCalibrationStepUsesStateChanges(t *testing.T) {
	_, m := trainChip(t)
	cfg := cfg16k()
	eng, err := NewEngine(m, testLayout(), DefaultCalibrator(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.CellsPerWordline
	defSense := flash.NewBitmap(n)
	curSense := flash.NewBitmap(n)
	// Flip many data cells but no sentinel cells: NCa >> NCs/r is false
	// here... NCs = 0 so NCs/r = 0 and NCa > 0: Case 1.
	for i := 0; i < 1000; i++ {
		curSense.Set(i, true)
	}
	newOfs, vec := eng.CalibrationStep(-10, defSense, curSense)
	if newOfs != -10-eng.Cal.Delta {
		t.Fatalf("Case 1 calibration moved to %v", newOfs)
	}
	if vec.Get(m.SentinelVoltage) != newOfs {
		t.Fatal("expanded vector does not carry the new sentinel offset")
	}
	// Flip every sentinel but few data cells: NCs/r large: Case 2.
	defSense2 := flash.NewBitmap(n)
	curSense2 := flash.NewBitmap(n)
	for _, idx := range eng.Indices() {
		curSense2.Set(idx, true)
	}
	newOfs2, _ := eng.CalibrationStep(-10, defSense2, curSense2)
	if newOfs2 != -10+eng.Cal.Delta {
		t.Fatalf("Case 2 calibration moved to %v", newOfs2)
	}
}

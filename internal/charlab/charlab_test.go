package charlab

import (
	"math"
	"testing"

	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/physics"
)

// smallChip builds a compact aged QLC chip with every wordline programmed.
func smallChip(t testing.TB, kind flash.Kind, pe int, hours float64) *flash.Chip {
	t.Helper()
	cfg := flash.Config{
		Kind:              kind,
		Layers:            8,
		WordlinesPerLayer: 2,
		CellsPerWordline:  4096,
		OOBFraction:       0.119,
		Seed:              21,
		CacheZ:            true,
	}
	c, err := flash.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRand(77)
	for wl := 0; wl < cfg.WordlinesPerBlock(); wl++ {
		c.ProgramRandom(wl, rng)
	}
	c.Cycle(pe)
	c.Age(hours, physics.RoomTempC)
	return c
}

func TestGrid(t *testing.T) {
	g := sweepGrid()
	if len(g) != 91 || g[0] != -60 || g[90] != 30 {
		t.Fatalf("grid = %v", g)
	}
}

func TestSweepCurveVShaped(t *testing.T) {
	c := smallChip(t, flash.QLC, 1000, physics.YearHours)
	l := New(c)
	offs, errs := l.SweepCurve(0, 8)
	if len(offs) != len(errs) {
		t.Fatal("length mismatch")
	}
	minI := 0
	for i, e := range errs {
		if e < errs[minI] {
			minI = i
		}
	}
	if minI == 0 || minI == len(errs)-1 {
		t.Fatalf("minimum at sweep edge: offset %v", offs[minI])
	}
	if errs[0] <= errs[minI]*2 && errs[len(errs)-1] <= errs[minI]*2 {
		t.Fatal("curve too flat to be a retry valley")
	}
}

func TestSweepCurvesMatchSweepCurve(t *testing.T) {
	// The fused all-voltage sweep promises byte-identical curves to the
	// per-voltage path — same read seeds, same counts, same float
	// accumulation order.
	c := smallChip(t, flash.QLC, 1000, physics.YearHours)
	l := New(c)
	offs, curves := l.SweepCurves(1)
	if len(curves) != c.Coding().NumVoltages() {
		t.Fatalf("got %d curves, want %d", len(curves), c.Coding().NumVoltages())
	}
	for v := 1; v <= len(curves); v++ {
		wantOffs, want := l.SweepCurve(1, v)
		if len(offs) != len(wantOffs) {
			t.Fatal("grid length mismatch")
		}
		for i := range want {
			if curves[v-1][i] != want[i] {
				t.Fatalf("V%d at %v: SweepCurves %v != SweepCurve %v",
					v, offs[i], curves[v-1][i], want[i])
			}
		}
	}
}

func TestOptimalOffsetsReduceRBER(t *testing.T) {
	c := smallChip(t, flash.QLC, 1000, physics.YearHours)
	l := New(c)
	msb := c.Coding().Bits() - 1
	for _, wl := range []int{0, 5, 11} {
		def := l.PageRBER(wl, msb, nil)
		opt := l.PageRBER(wl, msb, l.OptimalOffsets(wl))
		if opt >= def {
			t.Fatalf("wl %d: optimal RBER %v >= default %v", wl, opt, def)
		}
		if opt > 0.5*def {
			t.Fatalf("wl %d: optimal gain too small (%v vs %v)", wl, opt, def)
		}
	}
}

func TestOptimalOffsetSingleMatchesVector(t *testing.T) {
	c := smallChip(t, flash.QLC, 1000, physics.YearHours)
	l := New(c)
	all := l.OptimalOffsets(3)
	single := l.OptimalOffset(3, 8)
	if math.Abs(all.Get(8)-single) > 2*sweepStep {
		t.Fatalf("single-voltage optimum %v far from vector %v", single, all.Get(8))
	}
}

// TestOptimalOffsetsMatchSingleBitwise pins the identity the sentinel
// trainer relies on to skip a second sweep: the all-voltage sweep's
// optimum of voltage v is bit for bit the single-voltage sweep's, on
// fresh and aged TLC and QLC chips, with the lab's seed moved off its
// default as the trainer moves it.
func TestOptimalOffsetsMatchSingleBitwise(t *testing.T) {
	for _, kind := range []flash.Kind{flash.TLC, flash.QLC} {
		for _, age := range []struct {
			pe    int
			hours float64
		}{{0, 0}, {3000, physics.YearHours}} {
			c := smallChip(t, kind, age.pe, age.hours)
			l := New(c)
			l.Seed = 0x5eed
			for _, wl := range []int{0, 5, 11} {
				all := l.OptimalOffsets(wl)
				for v := 1; v <= c.Coding().NumVoltages(); v++ {
					if got, want := all.Get(v), l.OptimalOffset(wl, v); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%v pe=%d wl=%d v=%d: vector optimum %v, single %v",
							kind, age.pe, wl, v, got, want)
					}
				}
			}
		}
	}
}

func TestOptimalNegativeAfterRetention(t *testing.T) {
	c := smallChip(t, flash.QLC, 1000, physics.YearHours)
	l := New(c)
	neg := 0
	o := l.OptimalOffsets(0)
	for v := 2; v <= 15; v++ {
		if o.Get(v) < 0 {
			neg++
		}
	}
	if neg < 12 {
		t.Fatalf("only %d/14 optima negative after a year of retention", neg)
	}
}

func TestLayerMaxRBER(t *testing.T) {
	c := smallChip(t, flash.QLC, 1000, physics.YearHours)
	l := New(c)
	rows := l.LayerMaxRBER(c.Coding().Bits() - 1)
	if len(rows) != 8 {
		t.Fatalf("got %d layers, want 8", len(rows))
	}
	for _, r := range rows {
		if r.OptimalMax >= r.DefaultMax {
			t.Fatalf("layer %d: optimal max %v >= default max %v",
				r.Layer, r.OptimalMax, r.DefaultMax)
		}
	}
	// Layers must differ substantially (Figure 3's variation).
	var defs []float64
	for _, r := range rows {
		defs = append(defs, r.DefaultMax)
	}
	lo, hi := mathx.MinMax(defs)
	if hi < 1.5*lo {
		t.Fatalf("layer variation too small: [%v, %v]", lo, hi)
	}
}

func TestErrorMapUniformAlongWordline(t *testing.T) {
	c := smallChip(t, flash.QLC, 1000, physics.YearHours)
	l := New(c)
	m := l.CollectErrorMap(16)
	chi2 := m.UniformityChi2()
	// Errors nearly uniform along each wordline: reduced chi-squared in a
	// loose band around 1.
	if chi2 <= 0 || chi2 > 3 {
		t.Fatalf("uniformity chi2 = %v, want ~1", chi2)
	}
	// But strong variation ACROSS wordlines (the stripes of Fig. 7).
	if cv := m.WordlineVariation(); cv < 0.15 {
		t.Fatalf("wordline variation %v too small", cv)
	}
}

func TestCollectCorrelationsLinearAcrossStress(t *testing.T) {
	// Paper methodology: optima collected across multiple stress points
	// show a near-linear relation between every voltage's optimum and the
	// sentinel voltage's optimum (Figure 8).
	cfg := flash.Config{
		Kind: flash.QLC, Layers: 8, WordlinesPerLayer: 2,
		CellsPerWordline: 16384, OOBFraction: 0.119, Seed: 21, CacheZ: true,
	}
	c := flash.MustNew(cfg)
	rng := mathx.NewRand(77)
	for wl := 0; wl < cfg.WordlinesPerBlock(); wl++ {
		c.ProgramRandom(wl, rng)
	}
	l := New(c)
	wls := []int{0, 2, 4, 6, 8, 10, 12, 14}
	cc := NewCorrelationCollector(c.Coding())
	for _, step := range []struct {
		pe    int
		hours float64
	}{
		{0, 24}, {500, 400}, {500, 2000}, {1000, 3000}, {1000, 3336},
	} {
		c.Cycle(step.pe)
		c.Age(step.hours, physics.RoomTempC)
		if _, err := cc.Add(l, wls); err != nil {
			t.Fatal(err)
		}
	}
	if cc.Len() != 5*len(wls) {
		t.Fatalf("collected %d points", cc.Len())
	}
	cors := cc.Fit()
	if len(cors) != 15 {
		t.Fatalf("got %d correlations", len(cors))
	}
	strong := 0
	for _, vc := range cors {
		if vc.Voltage == c.Coding().SentinelVoltage() {
			if math.Abs(vc.R-1) > 1e-9 || math.Abs(vc.Slope-1) > 1e-9 {
				t.Fatalf("self correlation should be exact: %+v", vc)
			}
			continue
		}
		if vc.Voltage == 1 {
			continue // V1 is excluded in the paper too (huge erase-state variation)
		}
		if vc.R > 0.8 {
			strong++
		}
		if vc.Slope <= 0 {
			t.Fatalf("V%d slope %v not positive", vc.Voltage, vc.Slope)
		}
	}
	if strong < 11 {
		t.Fatalf("only %d/13 voltages strongly correlated with sentinel", strong)
	}
}

func TestCollectCorrelationsSingleStress(t *testing.T) {
	c := smallChip(t, flash.QLC, 1000, physics.YearHours)
	cc := NewCorrelationCollector(c.Coding())
	if _, err := cc.Add(New(c), []int{0, 1, 2, 3, 4, 5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	cors := cc.Fit()
	if len(cors) != 15 {
		t.Fatalf("got %d correlations", len(cors))
	}
	for _, vc := range cors {
		if len(vc.Points) != 8 {
			t.Fatalf("V%d has %d points", vc.Voltage, len(vc.Points))
		}
	}
}

func TestCollectCorrelationsUnprogrammed(t *testing.T) {
	c := flash.MustNew(flash.Config{
		Kind: flash.QLC, Layers: 4, WordlinesPerLayer: 1,
		CellsPerWordline: 1024, Seed: 1, CacheZ: true,
	})
	if _, err := NewCorrelationCollector(c.Coding()).Add(New(c), []int{0}); err == nil {
		t.Fatal("expected error for unprogrammed wordline")
	}
}

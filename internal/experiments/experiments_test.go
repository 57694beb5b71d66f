package experiments

import (
	"math"
	"strings"
	"testing"

	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/physics"
)

func TestScalesValid(t *testing.T) {
	for _, s := range []Scale{Quick(), Full()} {
		if err := s.ChipConfig(flash.TLC, 1).Validate(); err != nil {
			t.Errorf("%s TLC config: %v", s.Name, err)
		}
		if err := s.Layout().Validate(); err != nil {
			t.Errorf("%s layout: %v", s.Name, err)
		}
		if err := s.CapModel(flash.TLC).Validate(); err != nil {
			t.Errorf("%s cap: %v", s.Name, err)
		}
		if len(s.trainPoints()) == 0 {
			t.Errorf("%s has no stress points", s.Name)
		}
		// A zero budget reads every page exactly once; the scales trade
		// fidelity for time, never the controller's retry budget.
		if s.MaxRetries <= 0 || s.MaxRetries != Quick().MaxRetries {
			t.Errorf("%s retry budget %d, want quick's positive %d",
				s.Name, s.MaxRetries, Quick().MaxRetries)
		}
	}
	// Quick keeps the paper's absolute sentinel count.
	q := Quick()
	if n := q.Layout().Count(q.ChipConfig(flash.QLC, 1)); n < 200 || n > 500 {
		t.Errorf("quick sentinel count %d far from the paper's ~295", n)
	}
	f := Full()
	if n := f.Layout().Count(f.ChipConfig(flash.QLC, 1)); n < 200 || n > 400 {
		t.Errorf("full sentinel count %d far from the paper's ~295", n)
	}
}

func TestTableRendering(t *testing.T) {
	out := Table([]string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	if !strings.Contains(out, "333") || !strings.Contains(out, "bb") {
		t.Fatalf("table output wrong:\n%s", out)
	}
	if Pct(0.5) != "50.0%" {
		t.Fatal("Pct wrong")
	}
	if F(1.5) != "1.5" {
		t.Fatal("F wrong")
	}
}

func TestModelCacheHit(t *testing.T) {
	s := Quick()
	m1, err := s.TrainModel(flash.TLC, 113)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.TrainModel(flash.TLC, 113)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("cache miss on identical training request")
	}
}

func TestFig2VShaped(t *testing.T) {
	r, err := Fig2ErrorVsOffset(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Errors) != 7 {
		t.Fatalf("%d voltages", len(r.Errors))
	}
	for v, errs := range r.Errors {
		minI := 0
		for i, e := range errs {
			if e < errs[minI] {
				minI = i
			}
		}
		if minI == 0 || minI == len(errs)-1 {
			t.Errorf("V%d minimum on sweep edge", v+1)
		}
	}
	if !strings.Contains(r.Render(), "Fig 2") {
		t.Fatal("render missing title")
	}
}

func TestFig3OptimalBeatsDefault(t *testing.T) {
	r, err := Fig3LayerRBER(Quick(), flash.QLC)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	var defHi, defLo []float64
	for _, row := range r.Rows {
		if row.PE < 1000 {
			continue // fresh blocks have near-zero RBER either way
		}
		if row.OptimalMax >= row.DefaultMax {
			t.Fatalf("PE %d layer %d: optimal %v >= default %v",
				row.PE, row.Layer, row.OptimalMax, row.DefaultMax)
		}
		if row.PE == 5000 {
			defHi = append(defHi, row.DefaultMax)
		}
		if row.PE == 1000 {
			defLo = append(defLo, row.DefaultMax)
		}
	}
	if mathx.Mean(defHi) <= mathx.Mean(defLo) {
		t.Fatal("RBER did not grow with P/E cycles")
	}
	// Order-of-magnitude scale check against the paper's axes.
	if m := mathx.Mean(defHi); m < 1e-3 || m > 2e-1 {
		t.Fatalf("QLC default RBER at 5K P/E = %v, outside paper's range", m)
	}
	_ = r.Render()
}

func TestFig45TemperatureAcceleration(t *testing.T) {
	r, err := Fig45Temperature(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Hot RBER above room RBER for every page type (Fig 4).
	for p := range r.RoomRBER {
		if mathx.Mean(r.HotRBER[p]) <= mathx.Mean(r.RoomRBER[p]) {
			t.Fatalf("page %d: hot RBER not above room", p)
		}
	}
	// Hot optima more negative than room optima (Fig 5).
	for vi := range r.Voltages {
		if mathx.Mean(r.HotOpt[vi]) >= mathx.Mean(r.RoomOpt[vi]) {
			t.Fatalf("V%d: hot optimum not below room", r.Voltages[vi])
		}
	}
	_ = r.Render()
}

func TestFig6ShiftPattern(t *testing.T) {
	r, err := Fig6LayerOptima(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Opt) != 15 {
		t.Fatalf("%d voltages", len(r.Opt))
	}
	// Lower voltages shift more than higher ones (V2 vs V15), and layers
	// vary.
	m2 := mathx.Mean(r.Opt[1])
	m15 := mathx.Mean(r.Opt[14])
	if !(m2 < m15 && m15 < 1) {
		t.Fatalf("shift pattern wrong: V2 %v, V15 %v", m2, m15)
	}
	lo, hi := mathx.MinMax(r.Opt[7])
	if hi-lo < 2 {
		t.Fatalf("V8 layer variation only %v", hi-lo)
	}
	_ = r.Render()
}

func TestFig7Locality(t *testing.T) {
	r, err := Fig7ErrorMap(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.UniformityChi2 <= 0 || r.UniformityChi2 > 3 {
		t.Fatalf("uniformity chi2 %v, want ~1", r.UniformityChi2)
	}
	if r.WordlineVariation < 0.1 {
		t.Fatalf("wordline variation %v too small for Fig 7's stripes",
			r.WordlineVariation)
	}
	_ = r.Render()
}

func TestFig8StrongCorrelations(t *testing.T) {
	r, err := Fig8Correlation(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Voltages other than V1 whose optimum correlates with V8's at |r| >= 0.75.
	n := 0
	for _, vc := range r.Correlations {
		if vc.Voltage != 1 && math.Abs(vc.R) >= 0.75 {
			n++
		}
	}
	if n < 11 {
		t.Fatalf("only %d/14 voltages strongly correlated", n)
	}
	_ = r.Render()
}

func TestTestbedSampler(t *testing.T) {
	tb, err := Quick().Testbed(flash.TLC, 113, 213, 5000, physics.YearHours)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Sampler("nope", []int{0}, 1); err == nil {
		t.Fatal("Sampler accepted an unknown policy")
	}
	pool, err := tb.Sampler("table", []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for p, outcomes := range pool.PerPage {
		if len(outcomes) != 3 {
			t.Errorf("page %d: %d outcomes, want 3 reads of one wordline", p, len(outcomes))
		}
	}
}

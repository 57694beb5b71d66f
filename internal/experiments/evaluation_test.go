package experiments

import (
	"strings"
	"testing"

	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
)

func TestFig10InferenceQuality(t *testing.T) {
	for _, kind := range []flash.Kind{flash.TLC, flash.QLC} {
		r, err := Fig10InferenceFit(Quick(), kind)
		if err != nil {
			t.Fatal(err)
		}
		// The d measurement is only informative once distributions shift
		// appreciably; low-stress grid points cluster at d~0, which drags
		// the whole-grid Pearson down for TLC (wider state spacing). The
		// held-out inference quality below is the real gate.
		minTrainR := 0.7
		if kind == flash.TLC {
			minTrainR = 0.35
		}
		if rr := mathx.Pearson(r.DS, r.Opts); rr < minTrainR {
			t.Fatalf("%v: training d-vs-opt correlation %v", kind, rr)
		}
		minEvalR := 0.5
		if kind == flash.TLC {
			// TLC's wider state spacing makes d less sensitive, so
			// per-wordline ranking is noisier (see EXPERIMENTS.md); across
			// data-pattern instances the quick-scale statistic (32
			// wordlines) swings by ~0.1, so the gate carries slack. The
			// absolute error and the Fig 13 retry reduction still hold.
			minEvalR = 0.25
		}
		if rr := mathx.Pearson(r.Inferred, r.Truth); rr < minEvalR {
			t.Fatalf("%v: inferred-vs-truth correlation %v", kind, rr)
		}
		// Bounds relative to the state width (TLC 256, QLC 128): both
		// correspond to landing within ~5% of a state width of the true
		// optimum.
		maxErr := 8.0
		if kind == flash.TLC {
			maxErr = 12
		}
		if e := r.MeanAbsError(); e > maxErr {
			t.Fatalf("%v: mean inference error %v", kind, e)
		}
		if !strings.Contains(r.Render(), "Fig 10") {
			t.Fatal("render missing title")
		}
	}
}

func TestTable1ErrorShrinksWithRatio(t *testing.T) {
	r, err := Table1SentinelRatio(Quick(), flash.QLC)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// The paper's trend: more sentinels, smaller error. Compare the
	// extremes (middle rows can wiggle within noise).
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if last.Mean >= first.Mean {
		t.Fatalf("error did not shrink: %.2f @%d sentinels vs %.2f @%d",
			first.Mean, first.Count, last.Mean, last.Count)
	}
	// At the paper's 0.2% equivalent the error should be small relative
	// to the state width (paper: 1.79 for QLC, width 128).
	for _, row := range r.Rows {
		if row.Ratio == 0.002 && row.Mean > 8 {
			t.Fatalf("0.2%% mean error %v too large", row.Mean)
		}
	}
	_ = r.Render()
}

func TestFig12CalibrationOrdering(t *testing.T) {
	r, err := Fig12StateChange(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// NC decreases monotonically as the probe moves toward the default
	// (positive offsets shrink the window): Case 2 > 1 > Case 1.
	for i := 1; i < len(r.PosOffsets); i++ {
		if r.Normalized[i] >= r.Normalized[i-1] {
			t.Fatalf("NC not decreasing at offset %v: %v -> %v",
				r.PosOffsets[i], r.Normalized[i-1], r.Normalized[i])
		}
	}
	// Normalization anchor.
	for i, p := range r.PosOffsets {
		if p == 0 && (r.Normalized[i] < 0.999 || r.Normalized[i] > 1.001) {
			t.Fatalf("NC(0) = %v, want 1", r.Normalized[i])
		}
	}
	_ = r.Render()
}

func TestFig13RetryReduction(t *testing.T) {
	r, err := Fig13RetryCount(Quick())
	if err != nil {
		t.Fatal(err)
	}
	table, sent, red := r.Averages()
	if table < 3 {
		t.Fatalf("current flash avg %v suspiciously low", table)
	}
	if sent > 3 {
		t.Fatalf("sentinel avg %v too high", sent)
	}
	if red < 0.5 {
		t.Fatalf("retry reduction %v, paper reports 0.82", red)
	}
	if r.SentLatencyUS >= r.TableLatencyUS {
		t.Fatal("sentinel latency not lower")
	}
	if !strings.Contains(r.Render(), "Fig 13") {
		t.Fatal("render missing title")
	}
}

func TestErrorComparisonQLC(t *testing.T) {
	r, err := ErrorComparison(Quick(), flash.QLC)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 15: calibration never hurts the success rate, and both are
	// reasonably high overall.
	inf := overallSuccess(r, MethodInferred)
	cal := overallSuccess(r, MethodCalibrated)
	if inf < 0.5 {
		t.Fatalf("inference success %v too low", inf)
	}
	if cal < inf-0.05 {
		t.Fatalf("calibration (%v) clearly worse than inference (%v)", cal, inf)
	}
	// Fig 17: inferred errors well below default for the heavily-shifted
	// low voltages; optimal is the floor.
	meanD := r.MeanErrors(MethodDefault)
	meanI := r.MeanErrors(MethodInferred)
	meanO := r.MeanErrors(MethodOptimal)
	for _, v := range []int{2, 3, 4, 5, 6, 7, 8} {
		if meanI[v-1] >= meanD[v-1] {
			t.Errorf("V%d: inferred %v >= default %v", v, meanI[v-1], meanD[v-1])
		}
		if meanO[v-1] > meanI[v-1]*1.2+5 {
			t.Errorf("V%d: optimal %v above inferred %v", v, meanO[v-1], meanI[v-1])
		}
	}
	// Fig 18: tracking hurts a nontrivial fraction of wordlines on at
	// least one voltage while sentinel stays consistent. Which voltage
	// shows the strongest contrast depends on the data-pattern instance,
	// so scan them all rather than pinning a few.
	hurtSomewhere := false
	for v := 2; v <= len(r.Errors[MethodOptimal]); v++ {
		if trackingHurtFraction(r, v) > 0.15 {
			hurtSomewhere = true
		}
	}
	if !hurtSomewhere {
		t.Error("tracking never hurt any wordline; Fig 18 contrast missing")
	}
	_ = r.Render()
}

// overallSuccess returns the mean success rate of method across voltages,
// excluding V1 as the paper's figures do.
func overallSuccess(r *ErrCompResult, method int) float64 {
	return mathx.Mean(r.SuccessRates(method)[1:])
}

// trackingHurtFraction returns, for voltage v (1-based), the fraction of
// wordlines where tracking produced more errors than the default
// voltages: the paper's Figure 18 observation that tracking helps some
// wordlines and hurts others.
func trackingHurtFraction(r *ErrCompResult, v int) float64 {
	col := r.TrackingErrors[v-1]
	def := r.Errors[MethodDefault][v-1]
	worse := 0
	for i := range col {
		if col[i] > def[i] {
			worse++
		}
	}
	return float64(worse) / float64(len(col))
}

func TestFig14LatencyReduction(t *testing.T) {
	r, err := Fig14TraceLatency(Quick(), 2500)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("%d workloads", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Reduction <= 0 {
			t.Errorf("%s: no read-latency reduction (%v)", row.Workload, row.Reduction)
		}
	}
	if m := r.MeanReduction(); m < 0.2 {
		t.Fatalf("mean reduction %v too small", m)
	}
	if r.SentMSBRetries >= r.TableMSBRetries {
		t.Fatal("sentinel chip-level retries not lower")
	}
	_ = r.Render()
}

func TestFig19LDPC(t *testing.T) {
	if testing.Short() {
		t.Skip("LDPC sweep is slow")
	}
	r, err := Fig19LDPC(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.ReducedRate <= r.FullRate {
		t.Fatal("sentinel-reduced code should have a higher rate (less parity)")
	}
	// Fresh chips decode everywhere.
	for _, bits := range []int{1, 2, 3} {
		for m := Fig19OPT; m <= Fig19Sentinel; m++ {
			rate, ok := r.SuccessRate(0, bits, m)
			if !ok || rate < 0.99 {
				t.Fatalf("PE 0, %d-bit, method %d: success %v",
					bits, m, rate)
			}
		}
	}
	// Soft sensing should never do worse than hard sensing for OPT, and
	// help at high P/E.
	for _, pe := range []int{4000, 5000} {
		hard, _ := r.SuccessRate(pe, 1, Fig19OPT)
		soft, _ := r.SuccessRate(pe, 3, Fig19OPT)
		if soft < hard {
			t.Fatalf("PE %d: 3-bit soft (%v) worse than hard (%v)", pe, soft, hard)
		}
	}
	// OPT should dominate current flash at high stress under hard
	// decoding... at minimum, never be dramatically worse anywhere.
	for _, p := range r.Points {
		opt, _ := r.SuccessRate(p.PE, p.SensingBits, Fig19OPT)
		if p.Method == Fig19CurrentFlash && p.SuccessRate > opt+0.34 {
			t.Fatalf("current flash beat OPT by a wide margin at PE %d", p.PE)
		}
	}
	_ = r.Render()
}

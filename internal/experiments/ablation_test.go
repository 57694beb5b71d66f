package experiments

import (
	"testing"

	"sentinel3d/internal/flash"
)

func TestAblatePlacement(t *testing.T) {
	r, err := AblatePlacement(Quick(), flash.QLC)
	if err != nil {
		t.Fatal(err)
	}
	if r.TailMean <= 0 || r.SpreadMean <= 0 {
		t.Fatalf("degenerate means: %+v", r)
	}
	// Spread sentinels sample spatial gradients, so on high-gradient
	// wordlines they should not be clearly worse than tail placement.
	if r.SpreadGradMean > r.TailGradMean*1.3 {
		t.Fatalf("spread placement worse on gradient wordlines: %+v", r)
	}
	if h := headline(t, r.Result(), "tail-OOB (paper), all WLs"); h.Value != r.TailMean {
		t.Errorf("tail-OOB headline %v, want %v", h.Value, r.TailMean)
	}
}

func TestAblateCalibrationDelta(t *testing.T) {
	r, err := AblateCalibrationDelta(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// Every setting must stay well below the current-flash baseline
	// (~6.6), and the default Δ=4 must be competitive.
	var d4 float64
	best := r.Rows[0].MeanRetries
	for _, row := range r.Rows {
		if row.MeanRetries > 4 {
			t.Fatalf("delta %v: %v retries — calibration broken", row.Delta, row.MeanRetries)
		}
		if row.MeanRetries < best {
			best = row.MeanRetries
		}
		if row.Delta == 4 {
			d4 = row.MeanRetries
		}
	}
	if d4 > best+1 {
		t.Fatalf("default delta=4 (%v) far from best (%v)", d4, best)
	}
	_ = r.Result().Text()
}

func TestAblateCombined(t *testing.T) {
	r, err := AblateCombined(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// The tracked first read should succeed more often than the default
	// first read (that is the whole point of the Section V combination).
	if r.CombinedFirstOK < r.SentinelFirstOK {
		t.Fatalf("tracking first read did not raise first-read success: %+v", r)
	}
	if r.CombinedRetries > r.SentinelRetries+0.5 {
		t.Fatalf("combined policy clearly worse: %+v", r)
	}
	_ = r.Result().Text()
}

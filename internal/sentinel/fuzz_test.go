package sentinel

import (
	"bytes"
	"math"
	"testing"

	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
)

// fuzzEngine builds an engine around a hand-constructed model so the fuzz
// targets do not depend on the expensive characterization/training flow.
// The polynomial and correlation lines are arbitrary but valid; inference
// robustness must not depend on their particular values.
func fuzzEngine(tb testing.TB) (*Engine, flash.Config) {
	cfg := flash.Config{
		Kind:              flash.TLC,
		Layers:            1,
		WordlinesPerLayer: 1,
		CellsPerWordline:  1024,
		OOBFraction:       0.119,
		Seed:              1,
	}
	corr := make([]LinearRel, 7)
	for v := 1; v <= len(corr); v++ {
		corr[v-1] = LinearRel{
			Voltage:   v,
			Slope:     0.2 + 0.1*float64(v),
			Intercept: float64(v) - 4,
			R:         0.9,
		}
	}
	m := &Model{
		Kind:            flash.TLC,
		SentinelVoltage: 4,
		F:               mathx.Poly{Coef: []float64{-3, -55, 20, 8}},
		DLo:             -0.45,
		DHi:             0.3,
		Corr:            corr,
	}
	eng, err := NewEngine(m, Layout{Ratio: 0.05, Placement: TailOOB},
		DefaultCalibrator(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return eng, cfg
}

// fuzzBitmap expands fuzzer bytes into an n-cell sense bitmap (missing
// bytes read as zero, extra bytes are ignored).
func fuzzBitmap(n int, data []byte) flash.Bitmap {
	bm := flash.NewBitmap(n)
	for i := 0; i < n; i++ {
		if i/8 < len(data) && data[i/8]>>(i%8)&1 == 1 {
			bm.Set(i, true)
		}
	}
	return bm
}

// FuzzInfer feeds arbitrary sense bitmaps to the inference path. Whatever
// the (possibly corrupted) sense looks like, the error-difference rate
// must stay in [-1, 1] and every inferred offset must be finite, with the
// sentinel offset inside the model's plausibility bound — the invariants
// the retry fallback guard relies on.
func FuzzInfer(f *testing.F) {
	eng, cfg := fuzzEngine(f)
	n := cfg.CellsPerWordline
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, n/8))
	f.Add(bytes.Repeat([]byte{0xaa}, n/8))
	f.Add([]byte{0x01, 0x80, 0x42})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, ofs := eng.Infer(fuzzBitmap(n, data))
		if math.IsNaN(d) || d < -1 || d > 1 {
			t.Fatalf("error-difference rate %v outside [-1, 1]", d)
		}
		if len(ofs) != len(eng.Model.Corr) {
			t.Fatalf("inferred %d offsets, want %d", len(ofs), len(eng.Model.Corr))
		}
		for v := 1; v <= len(ofs); v++ {
			if o := ofs.Get(v); math.IsNaN(o) || math.IsInf(o, 0) {
				t.Fatalf("offset V%d = %v not finite (d = %v)", v, o, d)
			}
		}
		// The domain clamp caps |F(d)|; allow slack for the sampled bound.
		bound := eng.OffsetBound()
		if s := ofs.Get(eng.Model.SentinelVoltage); math.Abs(s) > bound*1.01+1e-9 {
			t.Fatalf("sentinel offset %v beyond plausibility bound %v (d = %v)",
				s, bound, d)
		}
	})
}

// FuzzCalibrationStep feeds arbitrary default/current sense pairs and
// offsets to the state-change calibration rule. The step must always move
// the sentinel offset by exactly Delta (in one direction or the other) and
// expand to finite offsets.
func FuzzCalibrationStep(f *testing.F) {
	eng, cfg := fuzzEngine(f)
	n := cfg.CellsPerWordline
	f.Add(0.0, []byte{}, bytes.Repeat([]byte{0xff}, n/8))
	f.Add(-12.0, []byte{0xaa, 0xaa}, []byte{0x55, 0x55})
	f.Add(30.5, []byte{1, 2, 3}, []byte{3, 2, 1})
	f.Fuzz(func(t *testing.T, curOfs float64, a, b []byte) {
		if math.IsNaN(curOfs) || math.Abs(curOfs) > 1e6 {
			t.Skip("controller offsets are small and finite")
		}
		newOfs, ofs := eng.CalibrationStep(curOfs, fuzzBitmap(n, a), fuzzBitmap(n, b))
		delta := eng.Cal.Delta
		step := math.Abs(newOfs - curOfs)
		if math.Abs(step-delta) > 1e-9*(1+math.Abs(curOfs)) {
			t.Fatalf("calibration moved by %v, want exactly %v (cur %v -> new %v)",
				step, delta, curOfs, newOfs)
		}
		for v := 1; v <= len(ofs); v++ {
			if o := ofs.Get(v); math.IsNaN(o) || math.IsInf(o, 0) {
				t.Fatalf("offset V%d = %v not finite", v, o)
			}
		}
	})
}

package sentinel

import (
	"math"
	"testing"

	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
)

func trainedStub() *Model {
	// f(d) = 500 d (linear for test readability), correlations
	// slope/intercept varying per voltage.
	corr := make([]LinearRel, 15)
	for v := 1; v <= 15; v++ {
		corr[v-1] = LinearRel{Voltage: v, Slope: 0.5 + float64(v)/15, Intercept: -2, R: 0.95}
	}
	return &Model{
		Kind:            flash.QLC,
		SentinelVoltage: 8,
		F:               mathx.Poly{Coef: []float64{0, 500}},
		DLo:             -0.05,
		DHi:             0.08,
		Corr:            corr,
	}
}

func TestModelValidate(t *testing.T) {
	if err := trainedStub().Validate(); err != nil {
		t.Fatal(err)
	}
	var nilModel *Model
	if err := nilModel.Validate(); err == nil {
		t.Fatal("nil model validated")
	}
	m := trainedStub()
	m.F = mathx.Poly{}
	if err := m.Validate(); err == nil {
		t.Fatal("untrained model validated")
	}
	m = trainedStub()
	m.SentinelVoltage = 99
	if err := m.Validate(); err == nil {
		t.Fatal("bad sentinel voltage validated")
	}
	m = trainedStub()
	m.DLo, m.DHi = 1, 0
	if err := m.Validate(); err == nil {
		t.Fatal("empty domain validated")
	}
}

func TestInferSentinelOffsetClampsDomain(t *testing.T) {
	m := trainedStub()
	if got := m.InferSentinelOffset(-0.01); math.Abs(got+5) > 1e-9 {
		t.Fatalf("f(-0.01) = %v, want -5", got)
	}
	// Outside the training domain, inputs are clamped.
	if got := m.InferSentinelOffset(-10); got != m.InferSentinelOffset(m.DLo) {
		t.Fatal("low d not clamped")
	}
	if got := m.InferSentinelOffset(10); got != m.InferSentinelOffset(m.DHi) {
		t.Fatal("high d not clamped")
	}
}

func TestOffsetsFromSentinelUsesCorrelations(t *testing.T) {
	m := trainedStub()
	o := m.OffsetsFromSentinelAt(-10, 25)
	if o.Get(8) != -10 {
		t.Fatalf("sentinel voltage offset = %v, want exact -10", o.Get(8))
	}
	for v := 1; v <= 15; v++ {
		if v == 8 {
			continue
		}
		want := m.Corr[v-1].Slope*(-10) + m.Corr[v-1].Intercept
		if math.Abs(o.Get(v)-want) > 1e-9 {
			t.Fatalf("V%d offset = %v, want %v", v, o.Get(v), want)
		}
	}
}

func TestCountUpDown(t *testing.T) {
	// 6 sentinels at indices 0..5, alternating below/above.
	idx := []int{0, 1, 2, 3, 4, 5}
	sense := flash.NewBitmap(8)
	// Perfect read: below cells (even) sense below, above cells (odd)
	// sense above.
	for i := range idx {
		sense.Set(i, PatternAbove(i))
	}
	up, down := CountUpDown(sense, idx)
	if up != 0 || down != 0 {
		t.Fatalf("perfect read gave up=%d down=%d", up, down)
	}
	// Cell 0 (below) sensed above: one up error.
	sense.Set(0, true)
	up, down = CountUpDown(sense, idx)
	if up != 1 || down != 0 {
		t.Fatalf("up=%d down=%d, want 1,0", up, down)
	}
	// Cell 1 (above) sensed below: one down error.
	sense.Set(1, false)
	up, down = CountUpDown(sense, idx)
	if up != 1 || down != 1 {
		t.Fatalf("up=%d down=%d, want 1,1", up, down)
	}
	if d := ErrorDiffRate(sense, idx); d != 0 {
		t.Fatalf("d = %v, want 0", d)
	}
	sense.Set(3, false) // second down error
	if d := ErrorDiffRate(sense, idx); math.Abs(d-(-1.0/6)) > 1e-12 {
		t.Fatalf("d = %v, want -1/6", d)
	}
}

func TestCorrForBandSelection(t *testing.T) {
	m := trainedStub()
	// No bands: always the room table.
	if &m.CorrFor(90)[0] != &m.Corr[0] {
		t.Fatal("bandless model should return the room table")
	}
	hotCorr := make([]LinearRel, len(m.Corr))
	copy(hotCorr, m.Corr)
	hotCorr[0].Slope = 99
	m.Bands = []TempBand{
		{MaxTempC: 45, Corr: m.Corr},
		{MaxTempC: 100, Corr: hotCorr},
	}
	if m.CorrFor(25)[0].Slope == 99 {
		t.Fatal("room temperature picked the hot band")
	}
	if m.CorrFor(80)[0].Slope != 99 {
		t.Fatal("80C did not pick the hot band")
	}
	// Above every band: clamp to the last.
	if m.CorrFor(200)[0].Slope != 99 {
		t.Fatal("beyond-range temperature not clamped to last band")
	}
}

func TestOffsetsFromSentinelAtUsesBand(t *testing.T) {
	m := trainedStub()
	hotCorr := make([]LinearRel, len(m.Corr))
	copy(hotCorr, m.Corr)
	for i := range hotCorr {
		hotCorr[i].Intercept = -10
	}
	m.Bands = []TempBand{
		{MaxTempC: 45, Corr: m.Corr},
		{MaxTempC: 100, Corr: hotCorr},
	}
	room := m.OffsetsFromSentinelAt(-5, 25)
	hot := m.OffsetsFromSentinelAt(-5, 85)
	if room.Get(2) == hot.Get(2) {
		t.Fatal("band tables did not change the expansion")
	}
	// The sentinel voltage stays exact in both.
	if room.Get(8) != -5 || hot.Get(8) != -5 {
		t.Fatal("sentinel offset not preserved")
	}
}

package sentinel

import (
	"errors"
	"fmt"
	"math"

	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
)

// LinearRel is the fitted linear relation between one read voltage's
// optimal offset and the sentinel voltage's optimal offset (one line of
// paper Figure 8).
type LinearRel struct {
	Voltage   int
	Slope     float64
	Intercept float64
	R         float64
}

// TempBand is a per-temperature-range correlation table. The paper's
// Section III-D: "we maintain ... multiple tables to store the
// correlations among optimal read voltages, where each table corresponds
// to a temperature range", because the cross-temperature effect reshapes
// the per-voltage optima relative to the sentinel voltage's.
type TempBand struct {
	// MaxTempC is the inclusive upper edge of the band; bands are sorted
	// ascending and the last band covers everything above.
	MaxTempC float64
	// Corr holds the band's per-voltage linear relations.
	Corr []LinearRel
}

// Model is the trained inference model programmed into every chip of a
// batch: the polynomial f mapping error-difference rate to the sentinel
// voltage's optimal offset, plus the per-voltage correlation lines.
type Model struct {
	// Kind records the cell technology the model was trained for.
	Kind flash.Kind
	// SentinelVoltage is the chosen sentinel voltage index (V4 TLC,
	// V8 QLC).
	SentinelVoltage int
	// F maps the error-difference rate d to the sentinel voltage's
	// optimal offset (paper Fig. 10, degree-5 fit). The paper notes (and
	// this model reproduces) that temperature does NOT change this
	// relation — d and the sentinel optimum move together.
	F mathx.Poly
	// DLo and DHi bound the d values seen in training; inputs are clamped
	// into this range before evaluating F (polynomials explode outside
	// their fit domain).
	DLo, DHi float64
	// Corr holds one linear relation per read voltage (the room-
	// temperature table).
	Corr []LinearRel
	// Bands optionally holds additional per-temperature-range tables.
	Bands []TempBand
}

// CorrFor returns the correlation table for the given read temperature:
// the first band whose MaxTempC is at or above tempC, falling back to the
// room-temperature table when no bands are trained.
func (m *Model) CorrFor(tempC float64) []LinearRel {
	for _, b := range m.Bands {
		if tempC <= b.MaxTempC {
			return b.Corr
		}
	}
	if len(m.Bands) > 0 {
		return m.Bands[len(m.Bands)-1].Corr
	}
	return m.Corr
}

// ErrNotTrained is returned when a Model is missing its fitted parts.
var ErrNotTrained = errors.New("sentinel: model not trained")

// Validate reports whether the model is usable.
func (m *Model) Validate() error {
	if m == nil || len(m.F.Coef) == 0 || len(m.Corr) == 0 {
		return ErrNotTrained
	}
	if m.SentinelVoltage < 1 || m.SentinelVoltage > len(m.Corr) {
		return fmt.Errorf("sentinel: sentinel voltage V%d outside the %d fitted voltages",
			m.SentinelVoltage, len(m.Corr))
	}
	if m.DHi <= m.DLo {
		return fmt.Errorf("sentinel: empty training domain [%v, %v]", m.DLo, m.DHi)
	}
	return nil
}

// InferSentinelOffset maps an error-difference rate to the inferred
// optimal offset of the sentinel voltage. Non-finite d (possible only
// with a degenerate zero-sentinel layout) clamps like an out-of-domain
// value so the result is always finite for a trained model.
func (m *Model) InferSentinelOffset(d float64) float64 {
	if math.IsNaN(d) || d < m.DLo {
		d = m.DLo
	}
	if d > m.DHi {
		d = m.DHi
	}
	return m.F.Eval(d)
}

// offsetBound samples F over the training domain and returns the largest
// offset magnitude it can produce; see Engine.OffsetBound.
func (m *Model) offsetBound() float64 {
	const samples = 256
	bound := 0.0
	for i := 0; i <= samples; i++ {
		d := m.DLo + float64((m.DHi-m.DLo)*float64(i)/samples)
		if v := math.Abs(m.F.Eval(d)); v > bound {
			bound = v
		}
	}
	return bound
}

// OffsetsFromSentinelAt expands a sentinel-voltage offset into a full
// per-voltage offset vector through the correlation table of the band
// covering tempC.
func (m *Model) OffsetsFromSentinelAt(sentOfs, tempC float64) flash.Offsets {
	corr := m.CorrFor(tempC)
	out := flash.ZeroOffsets(len(corr))
	for _, rel := range corr {
		out[rel.Voltage-1] = float64(rel.Slope*sentOfs) + rel.Intercept
	}
	// The sentinel voltage itself maps exactly.
	out[m.SentinelVoltage-1] = sentOfs
	return out
}

// InferAt runs the full inference, d -> sentinel offset -> all offsets,
// with the correlation table selected by temperature.
func (m *Model) InferAt(d, tempC float64) flash.Offsets {
	return m.OffsetsFromSentinelAt(m.InferSentinelOffset(d), tempC)
}

// CountUpDown counts up and down errors on sentinel cells from a
// single-voltage sense at the sentinel voltage (bit set = cell sensed
// above the boundary). Up errors are sentinels programmed below the
// boundary but sensed above; down errors the converse.
func CountUpDown(sense flash.Bitmap, indices []int) (up, down int) {
	for i, idx := range indices {
		above := sense.Get(idx)
		if PatternAbove(i) {
			if !above {
				down++
			}
		} else if above {
			up++
		}
	}
	return up, down
}

// ErrorDiffRate returns d = (up - down) / n for a sentinel sense.
func ErrorDiffRate(sense flash.Bitmap, indices []int) float64 {
	up, down := CountUpDown(sense, indices)
	return float64(up-down) / float64(len(indices))
}

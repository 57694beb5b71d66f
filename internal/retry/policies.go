package retry

import (
	"sentinel3d/internal/flash"
	"sentinel3d/internal/sentinel"
)

// ---------------------------------------------------------------------------
// DefaultTable — the "current flash" baseline.

// DefaultTablePolicy walks a static vendor-style retry table: entry k
// shifts every read voltage downward by k*Step scaled by a per-voltage
// shape profile (vendors pre-characterize the typical retention-shift
// profile of the technology). The first attempt (k=0) uses factory
// defaults.
type DefaultTablePolicy struct {
	// Step is the sentinel-voltage-equivalent step per table entry.
	Step float64
	// Shape scales the step per voltage (index v-1); nil means uniform.
	Shape []float64
}

// NewDefaultTable builds the baseline for a chip, deriving the shape
// profile from the technology's typical shift pattern (larger steps for
// lower voltages), normalized to 1 at the sentinel voltage.
func NewDefaultTable(chip *flash.Chip, step float64) *DefaultTablePolicy {
	p := chip.Model().P
	coding := chip.Coding()
	k := float64(coding.States() - 1)
	weight := func(v int) float64 {
		// Mean shift weight of the two states flanking boundary v, with
		// the erased state contributing nothing.
		w := func(s int) float64 {
			if s == 0 {
				return 0
			}
			return p.ChargeFloor + (k-float64(s))/k
		}
		return (w(v-1) + w(v)) / 2
	}
	sv := coding.SentinelVoltage()
	shape := make([]float64, coding.NumVoltages())
	for v := 1; v <= coding.NumVoltages(); v++ {
		shape[v-1] = weight(v) / weight(sv)
	}
	return &DefaultTablePolicy{Step: step, Shape: shape}
}

// Session implements Policy.
func (p *DefaultTablePolicy) Session(env *Env) Session {
	return tableSession{p: p, nv: env.Coding().NumVoltages()}
}

// tableSession walks the vendor table; AR2Policy sets pipelined.
type tableSession struct {
	p         *DefaultTablePolicy
	nv        int
	pipelined bool
}

// Entry returns table entry k (k=0 is factory defaults).
func (p *DefaultTablePolicy) Entry(k, nv int) flash.Offsets {
	ofs := flash.ZeroOffsets(nv)
	if k == 0 {
		return ofs
	}
	for v := 0; v < nv; v++ {
		scale := 1.0
		if p.Shape != nil {
			scale = p.Shape[v]
		}
		ofs[v] = -float64(k) * p.Step * scale
	}
	return ofs
}

func (s tableSession) NextOffsets(k int, _ flash.Bitmap, _ flash.Offsets) (flash.Offsets, bool) {
	return s.p.Entry(k, s.nv), true
}

// Pipelined implements PipelinedSession.
func (s tableSession) Pipelined() bool { return s.pipelined }

// ---------------------------------------------------------------------------
// Sentinel — the paper's technique.

// SentinelPolicy wires the sentinel engine into the read path:
//
//	attempt 0: factory defaults;
//	attempt 1: infer all offsets from the sentinel errors of the failed
//	           default read (free for LSB pages, one auxiliary
//	           single-voltage read otherwise);
//	attempts 2..: state-change calibration, ±Δ per step.
type SentinelPolicy struct {
	Engine *sentinel.Engine
}

// NewSentinelPolicy wraps an engine.
func NewSentinelPolicy(engine *sentinel.Engine) *SentinelPolicy {
	return &SentinelPolicy{Engine: engine}
}

// Session implements Policy.
func (p *SentinelPolicy) Session(env *Env) Session {
	return &sentinelSession{p: p, env: env}
}

type sentinelSession struct {
	p   *SentinelPolicy
	env *Env

	defaultSense flash.Bitmap
	sentOfs      float64
	// senseLSB forces auxiliary sentinel-voltage senses on LSB pages
	// too: set when the first attempt read at non-default (warm)
	// offsets, so the LSB readout was not taken at the voltages the
	// inference and calibration steps expect.
	senseLSB bool
	// lastD is the error-difference rate measured at attempt 1; the
	// fallback guard reads it to judge whether the measurement was inside
	// the model's training domain.
	lastD float64
}

// senseFromLSBReadout converts an LSB page readout into a sentinel-voltage
// sense bitmap: the LSB bit is 1 below the boundary, so the sense (at or
// above) is its inverse. The copy lives in a pooled buffer that remains
// valid until the read finishes (same lifetime as Sense results) — which
// also makes it safe to take of the ephemeral prior bitmap.
func (e *Env) senseFromLSBReadout(read flash.Bitmap) flash.Bitmap {
	e.met.lsbReuse()
	out := e.hold(flash.GetBitmap(e.Chip.Config().CellsPerWordline))
	for i, w := range read {
		out[i] = ^w
	}
	return out
}

func (s *sentinelSession) NextOffsets(k int, prior flash.Bitmap, priorOfs flash.Offsets) (flash.Offsets, bool) {
	eng := s.p.Engine
	sv := eng.Model.SentinelVoltage
	nv := s.env.Coding().NumVoltages()
	switch {
	case k == 0:
		return flash.ZeroOffsets(nv), true
	case k == 1:
		// Measure the error difference at the default sentinel voltage.
		if s.env.Page == flash.PageLSB && !s.senseLSB {
			s.defaultSense = s.env.senseFromLSBReadout(prior)
		} else {
			s.defaultSense = s.env.Sense(sv, 0)
		}
		d, ofs := eng.Infer(s.defaultSense)
		s.lastD = d
		s.sentOfs = ofs.Get(sv)
		return ofs, true
	default:
		if k-1 > eng.Cal.MaxSteps {
			return nil, false
		}
		// Sense at the current sentinel offset. For LSB pages the failed
		// attempt already applied the sentinel voltage at that offset, so
		// its readout is reused for free.
		var curSense flash.Bitmap
		if s.env.Page == flash.PageLSB && !s.senseLSB {
			curSense = s.env.senseFromLSBReadout(prior)
		} else {
			curSense = s.env.Sense(sv, s.sentOfs)
		}
		newOfs, vec := eng.CalibrationStep(s.sentOfs, s.defaultSense, curSense)
		s.sentOfs = newOfs
		return vec, true
	}
}

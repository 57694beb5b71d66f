package sentinel

import (
	"fmt"

	"sentinel3d/internal/flash"
)

// Engine binds a trained model, a layout resolved against a concrete chip
// geometry, and a calibrator. It is the runtime-side object the read
// controller consults on a read failure; it sees only readouts and the
// known sentinel pattern, never simulator ground truth.
type Engine struct {
	Model  *Model
	Layout Layout
	Cal    Calibrator
	// Obs, when non-nil, receives inference/calibration metrics; nil
	// costs one branch per inference.
	Obs *Metrics

	indices []int
	ratio   float64
	tempC   float64
	bound   float64
}

// NewEngine resolves the layout against cfg and validates the parts.
func NewEngine(model *Model, layout Layout, cal Calibrator, cfg flash.Config) (*Engine, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	if err := cal.Validate(); err != nil {
		return nil, err
	}
	if model.Kind != cfg.Kind {
		return nil, fmt.Errorf("sentinel: model trained for %v used on %v chip",
			model.Kind, cfg.Kind)
	}
	idx := layout.Indices(cfg)
	return &Engine{
		Model:   model,
		Layout:  layout,
		Cal:     cal,
		indices: idx,
		ratio:   float64(len(idx)) / float64(cfg.CellsPerWordline),
		tempC:   25,
		bound:   model.offsetBound(),
	}, nil
}

// OffsetBound returns the largest sentinel-offset magnitude the trained
// polynomial can produce over its training domain. Inferred or calibrated
// offsets far beyond this bound cannot have come from a healthy sentinel
// measurement; the fallback guard in internal/retry uses it as the
// plausibility limit.
func (e *Engine) OffsetBound() float64 { return e.bound }

// StuckFraction compares two senses of the same wordline taken at widely
// separated voltages (senseLo well below every state, senseHi well above)
// and returns the fraction of sentinel cells that read identically in
// both. A healthy cell always senses above at senseLo and below at
// senseHi; a cell that does not respond to the read voltage at all is
// stuck, and a block whose sentinel region shows stuck cells cannot be
// trusted for inference.
func (e *Engine) StuckFraction(senseLo, senseHi flash.Bitmap) float64 {
	if len(e.indices) == 0 {
		return 0
	}
	stuck := 0
	for _, idx := range e.indices {
		if senseLo.Get(idx) == senseHi.Get(idx) {
			stuck++
		}
	}
	return float64(stuck) / float64(len(e.indices))
}

// SetTemperature tells the engine the controller's on-board temperature
// reading, selecting the matching correlation band for inference (paper
// Section III-D).
func (e *Engine) SetTemperature(tempC float64) { e.tempC = tempC }

// Indices returns the resolved sentinel cell indices.
func (e *Engine) Indices() []int { return e.indices }

// Ratio returns the effective reserve ratio r.
func (e *Engine) Ratio() float64 { return e.ratio }

// Prepare overwrites the sentinel cells of a to-be-programmed state slice
// with the sentinel pattern. FTL write paths call this on every program.
func (e *Engine) Prepare(states []uint8) {
	e.Layout.ApplyPattern(states, e.indices, e.Model.SentinelVoltage)
}

// Infer consumes a single-voltage sense at the *default* sentinel voltage
// (bit set = sensed above the boundary) and returns the measured
// error-difference rate together with the inferred full offset vector.
func (e *Engine) Infer(defaultSense flash.Bitmap) (d float64, offsets flash.Offsets) {
	d = ErrorDiffRate(defaultSense, e.indices)
	offsets = e.Model.InferAt(d, e.tempC)
	e.Obs.recordInfer(d, offsets.Get(e.Model.SentinelVoltage))
	return d, offsets
}

// CalibrationStep consumes the default-voltage sense and the sense at the
// current sentinel offset, applies the state-change rule, and returns the
// adjusted sentinel offset with its expanded offset vector.
func (e *Engine) CalibrationStep(curSentOfs float64, defaultSense, curSense flash.Bitmap) (newSentOfs float64, offsets flash.Offsets) {
	nca := defaultSense.XorCount(curSense)
	ncs := 0
	for _, idx := range e.indices {
		if defaultSense.Get(idx) != curSense.Get(idx) {
			ncs++
		}
	}
	// Scrambled data places 2/States of the cells in the boundary states
	// where every sentinel lives.
	states := len(e.Model.Corr) + 1
	boundaryFraction := 2 / float64(states)
	newSentOfs = e.Cal.Step(curSentOfs, nca, ncs, e.ratio, boundaryFraction)
	e.Obs.recordCalStep(newSentOfs - curSentOfs)
	return newSentOfs, e.Model.OffsetsFromSentinelAt(newSentOfs, e.tempC)
}

package sentinel

import "fmt"

// Calibrator implements the paper's Section III-C rule for repairing a
// failed inference. After the read retry at the inferred voltages fails,
// the controller compares how many cells changed sensed state between the
// default and the inferred sentinel voltage:
//
//   - NCa > NCs/r  (all cells changed proportionally more than sentinels):
//     Case 1 — the inferred move undershot; tune further in the same
//     direction.
//   - otherwise: Case 2 — the move overshot; tune back.
//
// Each calibration step moves the sentinel offset by the small constant
// Delta and re-derives the other voltages through the correlation model.
type Calibrator struct {
	// Delta is the per-step adjustment in normalized voltage units.
	Delta float64
	// MaxSteps bounds the number of calibration retries.
	MaxSteps int
}

// DefaultCalibrator returns the calibration settings used in the
// experiments (small Δ, a handful of steps).
func DefaultCalibrator() Calibrator {
	return Calibrator{Delta: 4, MaxSteps: 6}
}

// Validate reports parameter errors.
func (c Calibrator) Validate() error {
	if c.Delta <= 0 {
		return fmt.Errorf("sentinel: calibrator delta %v must be positive", c.Delta)
	}
	if c.MaxSteps < 0 {
		return fmt.Errorf("sentinel: negative MaxSteps %d", c.MaxSteps)
	}
	return nil
}

// Step returns the next sentinel-voltage offset given the current offset
// and the state-change counts. nca counts all cells whose sensed state
// changed between the default-voltage read and the current-offset read;
// ncs counts the sentinel cells that changed; ratio is the sentinel
// reserve ratio r.
//
// boundaryFraction corrects for programming density: sentinel cells are
// ALL in the two states flanking the sentinel voltage, while randomly
// scrambled data puts only 2/States of cells there, so the expected
// all-cell count for sentinel-like behaviour is (NCs/r) * 2/States. (The
// paper's Fig. 11 presentation draws both populations as the two boundary
// states and divides by r only; with scrambled data the density factor is
// required or every comparison reads as Case 2.)
func (c Calibrator) Step(curOfs float64, nca, ncs int, ratio, boundaryFraction float64) float64 {
	dir := 1.0
	if curOfs < 0 {
		dir = -1
	}
	if curOfs == 0 {
		// No move was made; the shift direction is unknowable from state
		// changes, so probe downward (retention loss is the common case).
		dir = -1
	}
	expected := float64(ncs) / ratio * boundaryFraction
	if float64(nca) > expected {
		// Case 1: data cells moved more than sentinels predicted — the
		// optimum lies further along the same direction.
		return curOfs + float64(dir*c.Delta)
	}
	// Case 2: overshoot — back off.
	return curOfs - float64(dir*c.Delta)
}

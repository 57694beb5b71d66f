// Package sentinel implements the paper's contribution: sentinel cells and
// a sentinel voltage that let the controller *infer* the optimal read
// voltages of a wordline from the errors observed on a small reserved cell
// set, instead of walking a retry table.
//
// The package provides:
//
//   - Layout: which cells of a wordline are reserved as sentinels
//     (0.2% by default, stored in the spare OOB area);
//   - the programming pattern (sentinels alternate between the two states
//     flanking the sentinel voltage);
//   - error-difference measurement from a readout;
//   - a trained inference model: a degree-5 polynomial f(d) mapping the
//     error-difference rate to the sentinel voltage's optimal offset, and
//     per-voltage linear correlations mapping that offset to every other
//     read voltage (paper Section III-B);
//   - the state-change-count calibration rule for inference failures
//     (paper Section III-C);
//   - the Trainer that builds the model from characterization sweeps, as
//     the paper does once per chip batch at manufacturing time.
package sentinel

import (
	"fmt"

	"sentinel3d/internal/flash"
)

// Placement selects where on the wordline sentinel cells live.
type Placement int

const (
	// TailOOB reserves sentinels at the end of the wordline, inside the
	// spare OOB area — the paper's layout. Sentinel data rides along with
	// every page read at zero extra cost.
	TailOOB Placement = iota
	// Spread distributes sentinels evenly along the wordline. Used as an
	// ablation: it samples spatial gradients better but would not fit the
	// OOB in a real chip.
	Spread
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	switch p {
	case TailOOB:
		return "tail-oob"
	case Spread:
		return "spread"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// Layout describes the sentinel reservation of a chip.
type Layout struct {
	// Ratio is the fraction of each wordline's cells reserved as
	// sentinels (paper default: 0.002).
	Ratio float64
	// Placement selects the physical arrangement.
	Placement Placement
}

// Validate reports layout errors. A ratio in (0, 0.1] keeps tail
// sentinels inside the OOB area (flash.Config.OOBCells, 11.9% of the
// cells) of every wordline flash.New accepts.
func (l Layout) Validate() error {
	if l.Ratio <= 0 || l.Ratio > 0.1 {
		return fmt.Errorf("sentinel: ratio %v out of (0, 0.1]", l.Ratio)
	}
	return nil
}

// Count returns the number of sentinel cells per wordline.
func (l Layout) Count(cfg flash.Config) int {
	n := int(float64(float64(cfg.CellsPerWordline)*l.Ratio) + 0.5)
	if n < 2 {
		n = 2
	}
	return n
}

// Indices returns the sentinel cell indices for a wordline, ascending.
func (l Layout) Indices(cfg flash.Config) []int {
	n := l.Count(cfg)
	out := make([]int, n)
	switch l.Placement {
	case Spread:
		stride := float64(cfg.CellsPerWordline) / float64(n)
		for i := range out {
			out[i] = int((float64(i) + 0.5) * stride)
		}
	default: // TailOOB
		start := cfg.CellsPerWordline - n
		for i := range out {
			out[i] = start + i
		}
	}
	return out
}

// ApplyPattern overwrites the sentinel cells of a wordline's state slice
// with the paper's pattern: sentinels are programmed evenly to the two
// voltage states flanking the sentinel voltage (S3/S4 for TLC, S7/S8 for
// QLC), alternating so exactly half sit on each side.
func (l Layout) ApplyPattern(states []uint8, indices []int, sentinelVoltage int) {
	lo := uint8(sentinelVoltage - 1)
	hi := uint8(sentinelVoltage)
	for i, idx := range indices {
		if i%2 == 0 {
			states[idx] = lo
		} else {
			states[idx] = hi
		}
	}
}

// PatternAbove reports whether sentinel i (by position in the index list)
// is programmed to the state above the sentinel voltage.
func PatternAbove(i int) bool { return i%2 == 1 }

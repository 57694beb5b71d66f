// Package physics models the threshold-voltage (Vth) behaviour of 3D NAND
// flash cells: programmed state distributions, retention- and
// P/E-cycle-driven shifts, temperature acceleration (Arrhenius),
// layer-to-layer and wordline-to-wordline process variation, and per-read
// sensing noise.
//
// The model is deliberately statistical rather than device-physical: it is
// tuned so that the *error statistics as a function of applied read
// voltage* reproduce the structure measured on real 64-layer Micron TLC
// and QLC chips in "Shaving Retries with Sentinels for Fast Read over
// High-Density 3D Flash" (MICRO 2020): order-of-magnitude RBER reduction
// at the optimal voltages, strong layer variation, near-uniform error
// positions along a wordline, and near-linear correlation between the
// per-voltage optima of a wordline.
//
// All voltages are in the paper's normalized units, where the width of one
// programmed voltage state is 256 for TLC and 128 for QLC.
package physics

import "fmt"

// Params describes one flash cell technology (e.g. the paper's TLC or QLC
// chip). All voltage quantities are in normalized units.
type Params struct {
	// Bits is the number of bits per cell (3 for TLC, 4 for QLC).
	Bits int

	// StateWidth is the nominal spacing between adjacent programmed state
	// centres (paper: 256 for TLC, 128 for QLC).
	StateWidth float64

	// EraseDepth places the erased-state centre at -EraseDepth*StateWidth.
	// The erased distribution sits well below the first programmed state.
	EraseDepth float64

	// ProgramSigma is the fresh standard deviation of programmed states
	// (s >= 1); EraseSigma is the (much wider) erased-state deviation.
	ProgramSigma float64
	EraseSigma   float64

	// DefaultMargin shifts every default read voltage this far *below* the
	// nominal midpoint between adjacent states. Vendors bias defaults low
	// in anticipation of retention loss, which makes fresh optimal offsets
	// slightly positive (paper Fig. 5 room-temperature curves).
	DefaultMargin float64

	// RetentionScale is the amplitude A0 of the retention-driven shift:
	// shift(s) = -A0 * ln(1 + tEff/T0) * (1 + PE*WearShiftPer1K/1000) * w(s).
	RetentionScale float64

	// RetentionT0Hours is the reference time constant T0 of the
	// logarithmic retention law.
	RetentionT0Hours float64

	// ChargeFloor is the floor of the per-state shift weight
	// w(s) = ChargeFloor + (K-1-s)/(K-1) for s >= 1 (w(0) = 0: the erased
	// state holds no programmed charge and does not leak). The weight
	// decreasing with s reproduces the paper's Fig. 6, where lower read
	// voltages exhibit larger optimal offsets than higher ones.
	ChargeFloor float64

	// WearShiftPer1K scales how much P/E wear accelerates the retention
	// shift: factor (1 + PE/1000 * WearShiftPer1K).
	WearShiftPer1K float64

	// SigmaPEPer1K and SigmaRetention widen the state distributions:
	// sigma = base * (1 + PE/1000*SigmaPEPer1K + SigmaRetention*ln(1+tEff/T0)).
	SigmaPEPer1K   float64
	SigmaRetention float64

	// LayerShiftStd is the relative standard deviation of the per-layer
	// retention multiplier (process variation across the 3D stack).
	LayerShiftStd float64

	// LayerSigmaStd is the relative standard deviation of the per-layer
	// sigma multiplier.
	LayerSigmaStd float64

	// WLShiftStd is the relative standard deviation of the per-wordline
	// retention multiplier within a layer.
	WLShiftStd float64

	// LayerStateJitter and WLStateJitter are additive per-(layer,state)
	// and per-(wordline,state) centre offsets in voltage units. They make
	// the per-voltage optima of a wordline imperfectly correlated, giving
	// Fig. 8 its scatter.
	LayerStateJitter float64
	WLStateJitter    float64

	// GradientStd is the standard deviation (in voltage units, per full
	// wordline length) of a per-wordline spatial shift gradient along the
	// bitline direction. Wordlines with a large gradient are the ones
	// whose sentinel cells (stored at the tail, in the OOB region)
	// misrepresent the data body — the paper's inference-failure cases
	// that calibration then repairs.
	GradientStd float64

	// ReadNoiseSigma is the per-read sensing noise standard deviation.
	// Two reads at the same voltage can differ (paper Section IV-B).
	ReadNoiseSigma float64

	// ActivationEnergyEV is the Arrhenius activation energy used to
	// convert time at an elevated temperature into equivalent
	// room-temperature retention time.
	ActivationEnergyEV float64

	// TailFrac and TailMult model the heavy tails of real Vth
	// distributions: a TailFrac fraction of cells draw their program
	// offset from a TailMult-times-wider Gaussian (fast leakers, random
	// telegraph noise victims). The tail population sets the error floor
	// at the optimal read voltage, which is what keeps real optimal-RBER
	// around 1e-4..1e-3 instead of the vanishing Gaussian prediction.
	TailFrac float64
	TailMult float64

	// XTempPerC models the cross-temperature effect: when a wordline is
	// READ at a temperature different from the programming temperature,
	// state s's Vth moves by -XTempPerC * (Tread - Troom) * s/(K-1)
	// voltage units (higher states have a stronger negative temperature
	// coefficient). Because the per-state weighting differs from the
	// retention-shift weighting, the cross-voltage optimum correlations
	// change with read temperature — the reason the paper keeps one
	// correlation table per temperature range (Section III-D).
	XTempPerC float64
}

// States returns the number of voltage states (2^Bits).
func (p Params) States() int { return 1 << p.Bits }

// Validate reports whether the parameters are internally consistent.
func (p Params) Validate() error {
	if p.Bits < 1 || p.Bits > 5 {
		return fmt.Errorf("physics: bits per cell %d out of range [1,5]", p.Bits)
	}
	if p.StateWidth <= 0 {
		return fmt.Errorf("physics: non-positive state width %v", p.StateWidth)
	}
	if p.ProgramSigma <= 0 || p.EraseSigma <= 0 {
		return fmt.Errorf("physics: non-positive sigma")
	}
	if p.RetentionT0Hours <= 0 {
		return fmt.Errorf("physics: non-positive retention T0")
	}
	if p.ActivationEnergyEV <= 0 {
		return fmt.Errorf("physics: non-positive activation energy")
	}
	return nil
}

// TLC returns parameters modelling the paper's 64-layer 3D TLC chip
// (3 bits/cell, state width 256).
func TLC() Params {
	return Params{
		Bits:               3,
		StateWidth:         256,
		EraseDepth:         2.0,
		ProgramSigma:       34,
		EraseSigma:         110,
		DefaultMargin:      3,
		RetentionScale:     3.0,
		RetentionT0Hours:   1,
		ChargeFloor:        0.25,
		WearShiftPer1K:     0.1667,
		SigmaPEPer1K:       0.030,
		SigmaRetention:     0.010,
		LayerShiftStd:      0.20,
		LayerSigmaStd:      0.03,
		WLShiftStd:         0.06,
		LayerStateJitter:   2.0,
		WLStateJitter:      1.2,
		GradientStd:        4.0,
		ReadNoiseSigma:     3.0,
		ActivationEnergyEV: 0.55,
		TailFrac:           0.008,
		TailMult:           2.2,
		XTempPerC:          0.30,
	}
}

// QLC returns parameters modelling the paper's 64-layer 3D QLC chip
// (4 bits/cell, state width 128).
func QLC() Params {
	return Params{
		Bits:               4,
		StateWidth:         128,
		EraseDepth:         2.0,
		ProgramSigma:       21,
		EraseSigma:         60,
		DefaultMargin:      2.5,
		RetentionScale:     3.2,
		RetentionT0Hours:   1,
		ChargeFloor:        0.25,
		WearShiftPer1K:     0.1667,
		SigmaPEPer1K:       0.05,
		SigmaRetention:     0.012,
		LayerShiftStd:      0.20,
		LayerSigmaStd:      0.05,
		WLShiftStd:         0.06,
		LayerStateJitter:   1.2,
		WLStateJitter:      0.8,
		GradientStd:        2.5,
		ReadNoiseSigma:     2.0,
		ActivationEnergyEV: 0.55,
		TailFrac:           0.008,
		TailMult:           2.2,
		XTempPerC:          0.18,
	}
}

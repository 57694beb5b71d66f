package physics

import (
	"fmt"
	"math"
)

// RoomTempC is the reference temperature for retention accounting.
const RoomTempC = 25.0

// boltzmannEVPerK is the Boltzmann constant in eV/K.
const boltzmannEVPerK = 8.617333262e-5

// Stress is the accumulated wear and retention state of a flash block.
// Retention is tracked as *effective hours at room temperature*: time
// spent at elevated temperature is multiplied by the Arrhenius
// acceleration factor before accumulation, which is exactly how the paper
// emulates one-year retention by baking chips.
type Stress struct {
	// PECycles is the number of program/erase cycles endured.
	PECycles int

	// EffRetentionHours is the retention time since programming,
	// normalized to room temperature.
	EffRetentionHours float64

	// ReadTempC is the ambient temperature during reads. It is only
	// meaningful when ReadTempSet is true; use AtReadTemp to set both
	// (and EffectiveReadTemp to read back). Reading hot shifts higher
	// states down relative to where they were programmed
	// (cross-temperature effect).
	ReadTempC float64

	// ReadTempSet marks ReadTempC as explicitly set. The zero value
	// (unset) means "read at room temperature". A separate flag — rather
	// than overloading ReadTempC == 0 — keeps a genuine 0°C cold read
	// distinct from the room-temperature default.
	ReadTempSet bool
}

// EffectiveReadTemp returns the read temperature, defaulting to room
// when no temperature has been set. An explicitly set 0°C is honoured:
// "unset" is tracked by ReadTempSet, not by the value itself.
func (s Stress) EffectiveReadTemp() float64 {
	if !s.ReadTempSet {
		return RoomTempC
	}
	return s.ReadTempC
}

// AtReadTemp returns a copy of s with the read temperature set.
func (s Stress) AtReadTemp(tempC float64) Stress {
	s.ReadTempC = tempC
	s.ReadTempSet = true
	return s
}

// AccelerationFactor returns the Arrhenius acceleration factor of
// tempC relative to room temperature for the given activation energy:
// AF = exp(Ea/kB * (1/Troom - 1/T)). AF > 1 above room temperature.
func AccelerationFactor(activationEnergyEV, tempC float64) float64 {
	tRoom := RoomTempC + 273.15
	t := tempC + 273.15
	return math.Exp(activationEnergyEV / boltzmannEVPerK * (1/tRoom - 1/t))
}

// Aged returns a copy of s with hours of retention at tempC added,
// converted to effective room-temperature hours using the activation
// energy from p. Negative hours panic: silently clamping them (as this
// once did) let sign bugs in aging schedules hide as no-ops.
func (s Stress) Aged(p Params, hours, tempC float64) Stress {
	if hours < 0 || math.IsNaN(hours) {
		panic(fmt.Sprintf("physics: Aged with negative retention interval %g h", hours))
	}
	s.EffRetentionHours += float64(hours * AccelerationFactor(p.ActivationEnergyEV, tempC))
	return s
}

// Cycled returns a copy of s with n additional P/E cycles. Negative n
// panics — wear never decreases, so a negative count is always a caller
// bug (see Aged).
func (s Stress) Cycled(n int) Stress {
	if n < 0 {
		panic(fmt.Sprintf("physics: Cycled with negative cycle count %d", n))
	}
	s.PECycles += n
	return s
}

// AfterProgram returns the stress state immediately after reprogramming:
// retention and read temperature reset, wear kept.
func (s Stress) AfterProgram() Stress {
	return Stress{PECycles: s.PECycles}
}

// YearHours is the number of hours in the paper's canonical one-year
// retention experiments.
const YearHours = 365 * 24

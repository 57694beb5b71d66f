package physics

import (
	"math"

	"sentinel3d/internal/mathx"
)

// Model evaluates the Vth distribution of cells for one chip instance.
// The chip seed determines all frozen process variation (layer and
// wordline fields); two models with the same parameters and seed describe
// identical chips, while different seeds describe different chips "of the
// same batch" (paper Section III-D).
//
// A Model is immutable after construction — every per-cell quantity is
// re-derived by hashing (Params, Seed, address), never stored — so all
// methods are safe for concurrent use.
type Model struct {
	P    Params
	Seed uint64
}

// NewModel validates p and returns a model for one chip instance.
func NewModel(p Params, seed uint64) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Model{P: p, Seed: seed}, nil
}

// domain separators for the hash-derived variation fields.
const (
	dsLayerShift = 0x4c61536866 // "LaShf"
	dsLayerSigma = 0x4c61536967 // "LaSig"
	dsLayerState = 0x4c615374
	dsWLShift    = 0x574c536866
	dsWLState    = 0x574c5374
	dsWLGrad     = 0x574c4772
	dsCellZ      = 0x43656c6c
	dsCellTail   = 0x5461696c
	dsReadNoise  = 0x52644e7a
)

// Center returns the nominal centre of state s with no stress and no
// variation. State 0 (erased) sits EraseDepth state-widths below state 1.
func (m *Model) Center(s int) float64 {
	if s == 0 {
		return float64(-m.P.EraseDepth * m.P.StateWidth)
	}
	return float64(float64(s) * m.P.StateWidth)
}

// DefaultReadVoltage returns the factory default for read voltage
// V_i (1 <= i <= NumVoltages), placed DefaultMargin below the midpoint of
// the adjacent nominal state centres.
func (m *Model) DefaultReadVoltage(i int) float64 {
	return float64((m.Center(i-1)+m.Center(i))/2) - m.P.DefaultMargin
}

// shiftWeight is w(s): the relative retention-shift magnitude of state s.
func (m *Model) shiftWeight(s int) float64 {
	if s == 0 {
		return 0
	}
	k := float64(m.P.States() - 1)
	return m.P.ChargeFloor + (k-float64(s))/k
}

// ShiftAmplitude returns the global shift amplitude A for a stress state:
// A = RetentionScale * ln(1 + tEff/T0) * (1 + PE/1000 * WearShiftPer1K).
func (m *Model) ShiftAmplitude(st Stress) float64 {
	ret := math.Log(1 + st.EffRetentionHours/m.P.RetentionT0Hours)
	wear := 1 + float64(float64(st.PECycles)/1000*m.P.WearShiftPer1K)
	return m.P.RetentionScale * ret * wear
}

// SigmaWiden returns the multiplicative distribution-widening factor for a
// stress state.
func (m *Model) SigmaWiden(st Stress) float64 {
	return 1 + float64(float64(st.PECycles)/1000*m.P.SigmaPEPer1K) +
		float64(m.P.SigmaRetention*math.Log(1+st.EffRetentionHours/m.P.RetentionT0Hours))
}

// LayerShiftMult returns the frozen per-layer retention multiplier
// (clamped to at least 0.3 so that no layer "un-leaks").
func (m *Model) LayerShiftMult(layer int) float64 {
	g := mathx.GaussFromHash(mathx.Mix3(m.Seed, dsLayerShift, uint64(layer)))
	v := 1 + float64(m.P.LayerShiftStd*g)
	if v < 0.3 {
		v = 0.3
	}
	return v
}

// LayerSigmaMult returns the frozen per-layer sigma multiplier.
func (m *Model) LayerSigmaMult(layer int) float64 {
	g := mathx.GaussFromHash(mathx.Mix3(m.Seed, dsLayerSigma, uint64(layer)))
	v := 1 + float64(m.P.LayerSigmaStd*g)
	if v < 0.5 {
		v = 0.5
	}
	return v
}

// LayerStateOffset returns the frozen additive centre offset of state s
// within a layer.
func (m *Model) LayerStateOffset(layer, s int) float64 {
	if s == 0 {
		return 0
	}
	g := mathx.GaussFromHash(mathx.Mix4(m.Seed, dsLayerState, uint64(layer), uint64(s)))
	return m.P.LayerStateJitter * g
}

// WLShiftMult returns the frozen per-wordline retention multiplier, keyed
// by the wordline's global index within the chip.
func (m *Model) WLShiftMult(globalWL uint64) float64 {
	g := mathx.GaussFromHash(mathx.Mix3(m.Seed, dsWLShift, globalWL))
	v := 1 + float64(m.P.WLShiftStd*g)
	if v < 0.3 {
		v = 0.3
	}
	return v
}

// WLStateOffset returns the frozen additive centre offset of state s on a
// wordline.
func (m *Model) WLStateOffset(globalWL uint64, s int) float64 {
	if s == 0 {
		return 0
	}
	g := mathx.GaussFromHash(mathx.Mix4(m.Seed, dsWLState, globalWL, uint64(s)))
	return m.P.WLStateJitter * g
}

// WLGradient returns the frozen spatial shift gradient of a wordline in
// voltage units across the full wordline length. A cell at position
// fraction f in [0,1) sees an extra shift of WLGradient * (f - 0.5).
func (m *Model) WLGradient(globalWL uint64) float64 {
	g := mathx.GaussFromHash(mathx.Mix3(m.Seed, dsWLGrad, globalWL))
	return m.P.GradientStd * g
}

// BaseSigma returns the fresh standard deviation of state s.
func (m *Model) BaseSigma(s int) float64 {
	if s == 0 {
		return m.P.EraseSigma
	}
	return m.P.ProgramSigma
}

// CellZ returns the frozen program offset of one cell for a given program
// epoch, in units of the state sigma. The same (wordline, cell, epoch)
// always yields the same z, so repeated reads of the same data are
// consistent; reprogramming (new epoch) redraws it. A TailFrac fraction of
// cells draw from a TailMult-times-wider distribution (heavy tails).
func (m *Model) CellZ(globalWL uint64, cell int, epoch uint64) float64 {
	h := mathx.Mix4(m.Seed, dsCellZ, mathx.Mix(globalWL, epoch), uint64(cell))
	z := mathx.GaussFromHash(h)
	if m.P.TailFrac > 0 && mathx.UniformFromHash(mathx.Hash64(h^dsCellTail)) < m.P.TailFrac {
		z *= m.P.TailMult
	}
	return z
}

// ReadNoise returns the per-read sensing noise of one cell for a given
// read seed.
func (m *Model) ReadNoise(readSeed uint64, cell int) float64 {
	if m.P.ReadNoiseSigma == 0 {
		return 0
	}
	h := mathx.Mix3(readSeed, dsReadNoise, uint64(cell))
	return float64(m.P.ReadNoiseSigma * mathx.GaussFromHash(h))
}

// NoiseStream is the hash stream of one read operation's sensing noise
// with the per-read setup hoisted out of the per-cell evaluation:
// Mix3(readSeed, dsReadNoise, cell) telescopes into one premixed base plus
// a single finalizer round per cell. At returns exactly ReadNoise's value
// for every cell.
type NoiseStream struct {
	base  uint64
	sigma float64
}

// Noise opens the sensing-noise stream of one read operation.
func (m *Model) Noise(readSeed uint64) NoiseStream {
	if m.P.ReadNoiseSigma == 0 {
		return NoiseStream{}
	}
	return NoiseStream{base: mathx.Mix(readSeed, dsReadNoise), sigma: m.P.ReadNoiseSigma}
}

// At returns the sensing noise of one cell; bit-identical to ReadNoise.
// The explicit conversion rounds the product on its own, so no
// architecture fuses it into the caller's add (arm64 would otherwise emit
// FMADDD) and every caller adds the same rounded noise.
func (ns NoiseStream) At(cell int) float64 {
	if ns.sigma == 0 {
		return 0
	}
	return float64(ns.sigma * mathx.GaussFromHash(mathx.Mix(ns.base, uint64(cell))))
}

// Bound returns an upper bound on |At(cell)| over every cell: the noise
// sigma times mathx.GaussBound, rounded like At's own product, so
// monotone rounding keeps every |At(cell)| at or below it.
func (ns NoiseStream) Bound() float64 {
	return float64(ns.sigma * mathx.GaussBound)
}

// FillCellZ writes the frozen program offset of every cell of a wordline
// program epoch into dst, as float32 (the chip's zcache precision). Each
// entry is bit-identical to float32(CellZ(globalWL, cell, epoch)); only
// the per-(wordline, epoch) hash setup is hoisted out of the loop.
func (m *Model) FillCellZ(globalWL, epoch uint64, dst []float32) {
	fillCellZ(m, globalWL, epoch, dst)
}

// FillCellZ64 is FillCellZ at full precision: each entry is exactly
// CellZ(globalWL, cell, epoch).
func (m *Model) FillCellZ64(globalWL, epoch uint64, dst []float64) {
	fillCellZ(m, globalWL, epoch, dst)
}

// fillCellZ is the loop behind FillCellZ and FillCellZ64: CellZ's hash
// draws with the per-(wordline, epoch) setup hoisted, each z rounded to
// Z only at the store.
func fillCellZ[Z float32 | float64](m *Model, globalWL, epoch uint64, dst []Z) {
	base := mathx.Mix3(m.Seed, dsCellZ, mathx.Mix(globalWL, epoch))
	tf, tm := m.P.TailFrac, m.P.TailMult
	for i := range dst {
		h := mathx.Mix(base, uint64(i))
		z := mathx.GaussFromHash(h)
		if tf > 0 && mathx.UniformFromHash(mathx.Hash64(h^dsCellTail)) < tf {
			z *= tm
		}
		dst[i] = Z(z)
	}
}

// WLEnv captures everything about a wordline's environment that is shared
// by all its cells: resolved per-state means and sigmas under a given
// stress, plus the spatial gradient. Computing it once per wordline read
// makes per-cell evaluation cheap.
type WLEnv struct {
	Mean     []float64 // per-state mean Vth
	Sigma    []float64 // per-state std dev
	Gradient float64   // full-span spatial shift (voltage units)
	states   int
}

// EnvInto resolves the wordline environment for a wordline at (layer,
// globalWL) under stress st into env, reusing env's Mean and Sigma
// slices when they have capacity.
func (m *Model) EnvInto(env *WLEnv, layer int, globalWL uint64, st Stress) {
	k := m.P.States()
	if cap(env.Mean) < k {
		env.Mean = make([]float64, k)
	}
	if cap(env.Sigma) < k {
		env.Sigma = make([]float64, k)
	}
	env.Mean = env.Mean[:k]
	env.Sigma = env.Sigma[:k]
	env.Gradient = m.WLGradient(globalWL)
	env.states = k
	amp := m.ShiftAmplitude(st) * m.LayerShiftMult(layer) * m.WLShiftMult(globalWL)
	widen := m.SigmaWiden(st) * m.LayerSigmaMult(layer)
	dT := st.EffectiveReadTemp() - RoomTempC
	for s := 0; s < k; s++ {
		shift := float64(-amp*m.shiftWeight(s)) + m.crossTempShift(s, dT)
		env.Mean[s] = m.Center(s) + m.LayerStateOffset(layer, s) +
			m.WLStateOffset(globalWL, s) + shift
		env.Sigma[s] = m.BaseSigma(s) * widen
	}
}

// crossTempShift is the cross-temperature Vth movement of state s when
// read dT degrees away from the programming temperature: higher states
// have a stronger (more negative when hot) temperature coefficient.
func (m *Model) crossTempShift(s int, dT float64) float64 {
	if s == 0 || dT == 0 || m.P.XTempPerC == 0 {
		return 0
	}
	k := float64(m.P.States() - 1)
	return -m.P.XTempPerC * dT * float64(s) / k
}

// CellVth returns the threshold voltage of a cell in state s at position
// cell of n cells on the wordline, for a given program epoch and read
// seed.
func (m *Model) CellVth(env WLEnv, globalWL uint64, cell, n, s int, epoch, readSeed uint64) float64 {
	pos := (float64(cell)+0.5)/float64(n) - 0.5
	var grad float64
	if s > 0 { // the erased state carries no programmed charge to skew
		grad = float64(env.Gradient * pos)
	}
	return env.Mean[s] + grad +
		float64(env.Sigma[s]*m.CellZ(globalWL, cell, epoch)) +
		m.ReadNoise(readSeed, cell)
}

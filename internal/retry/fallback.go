package retry

import (
	"sync/atomic"

	"sentinel3d/internal/flash"
)

// Plausibility thresholds of FallbackPolicy. Production controllers
// never trust a single inference path; these are the checks that decide
// when sentinel inference is lying.
const (
	// dSlack widens the model's trained error-difference domain
	// [DLo, DHi]: a measured d outside [DLo-dSlack, DHi+dSlack] cannot
	// have come from a healthy sentinel population and trips the guard.
	dSlack float64 = 0.05
	// maxOffsetFactor bounds inferred and calibrated sentinel offsets to
	// maxOffsetFactor * Engine.OffsetBound(); beyond that the inference
	// (or a diverging calibration walk) is implausible.
	maxOffsetFactor float64 = 1.25
	// stuckTolerance is the sentinel-region stuck-cell fraction above
	// which Probe declares the chip degraded. It is
	// deliberately generous: the inference clamp to [DLo, DHi] plus
	// state-change calibration absorb small error-difference biases (the
	// corruption sweep measures only ~0.1 extra retries per read at 4%
	// stuck cells), so the probe withdraws trust only once the stuck
	// fraction is large enough to bias d beyond what calibration can
	// walk back.
	stuckTolerance float64 = 0.05
	// probeSpan sets the probe voltages of Probe in state widths:
	// the sentinel voltage ± probeSpan*StateWidth. It must be wide enough
	// that every healthy cell of the two flanking states responds at both
	// extremes.
	probeSpan float64 = 1.5
)

// FallbackPolicy plausibility-checks sentinel inference and degrades to
// the static vendor table instead of burning the retry budget on
// implausible voltages. Two layers of defence:
//
//   - Per chip: Probe senses the sentinel region at two extreme
//     voltages and retires the chip from sentinel service when its
//     stuck-cell fraction exceeds stuckTolerance. A degraded chip reads
//     exactly like the static table from attempt 0.
//   - Per read: the inferred offset must be inside the model's plausible
//     range and the measured d inside the trained domain; calibration
//     must stay bounded rather than diverge. A violation switches the
//     remaining attempts of that read to the static table (whose entry k
//     sequence is shared, so no attempt is wasted).
//
// Probe writes the degraded flag before reads fan out; the flag is
// atomic all the same, and every session latches it once at creation,
// so each read runs one coherent policy — it can degrade mid-read only
// via its own guard. Probing issues device senses, so Probe itself
// follows the chip's read-concurrency contract.
type FallbackPolicy struct {
	Sentinel *SentinelPolicy
	Table    *DefaultTablePolicy

	degraded atomic.Bool
}

// NewFallback wraps a sentinel policy with a static-table fallback.
func NewFallback(sentinel *SentinelPolicy, table *DefaultTablePolicy) *FallbackPolicy {
	return &FallbackPolicy{Sentinel: sentinel, Table: table}
}

// Probe health-checks the chip's sentinel region through wordline wl
// (which must be programmed): two accounted-for-nothing senses at the
// extremes of the sentinel voltage's neighbourhood detect cells that do
// not respond to the read voltage. It returns the stuck fraction and
// records the chip as degraded when it exceeds stuckTolerance.
// Call from the coordinating goroutine before fanning out reads.
func (p *FallbackPolicy) Probe(chip *flash.Chip, wl int) float64 {
	eng := p.Sentinel.Engine
	sv := eng.Model.SentinelVoltage
	span := probeSpan * chip.Model().P.StateWidth
	// Pinned digests of probed runs depend on these two read seeds.
	lo := chip.Sense(wl, sv, -span, 1)
	hi := chip.Sense(wl, sv, +span, 0)
	frac := eng.StuckFraction(lo, hi)
	flash.PutBitmap(hi)
	flash.PutBitmap(lo)
	p.degraded.Store(frac > stuckTolerance)
	return frac
}

// Degraded reports whether the chip failed its last probe.
func (p *FallbackPolicy) Degraded() bool { return p.degraded.Load() }

// Session implements Policy.
func (p *FallbackPolicy) Session(env *Env) Session {
	return &fallbackSession{
		p:        p,
		env:      env,
		sentinel: p.Sentinel.Session(env).(*sentinelSession),
		degraded: p.Degraded(),
	}
}

type fallbackSession struct {
	p        *FallbackPolicy
	env      *Env
	sentinel *sentinelSession
	// degraded latches once the guard trips (or immediately for a
	// degraded chip); from then on every attempt k is the static table's
	// entry k, which matches the attempts a pure table session would have
	// issued because both start from factory defaults at k=0.
	degraded bool
}

// UsedFallback reports whether this read degraded to the static table;
// Controller.Read copies it into Result.UsedFallback.
func (s *fallbackSession) UsedFallback() bool { return s.degraded }

func (s *fallbackSession) NextOffsets(k int, prior flash.Bitmap, priorOfs flash.Offsets) (flash.Offsets, bool) {
	nv := s.env.Coding().NumVoltages()
	if s.degraded {
		// The controller's retry budget terminates the walk, exactly as
		// for a pure tableSession.
		return s.p.Table.Entry(k, nv), true
	}
	ofs, ok := s.sentinel.NextOffsets(k, prior, priorOfs)
	if !ok {
		return nil, false
	}
	if k >= 1 && !s.plausible(k) {
		s.degraded = true
		return s.p.Table.Entry(k, nv), true
	}
	return ofs, true
}

// plausible applies the per-read guard after the sentinel session
// produced the offsets for attempt k.
func (s *fallbackSession) plausible(k int) bool {
	eng := s.p.Sentinel.Engine
	if k == 1 {
		// The measured error-difference rate must lie inside (or near) the
		// trained domain; far outside it the polynomial is extrapolating
		// from a population that cannot be healthy sentinels.
		d := s.sentinel.lastD
		if d < eng.Model.DLo-dSlack || d > eng.Model.DHi+dSlack {
			return false
		}
	}
	// The running sentinel offset — inferred at k=1, walked by
	// calibration afterwards — must stay inside the model's plausible
	// range instead of diverging.
	bound := maxOffsetFactor * eng.OffsetBound()
	if bound > 0 && (s.sentinel.sentOfs < -bound || s.sentinel.sentOfs > bound) {
		return false
	}
	return true
}

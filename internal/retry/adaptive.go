package retry

import (
	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/sentinel"
)

// The adaptive read stack, after the AR²/PR² follow-on literature
// (Park et al.) and the paper's Section V sketch: start each read at
// known-good per-block voltages so the first attempt usually lands
// (WarmStartPolicy), and pipeline consecutive retry steps so a retry's
// sense hides behind the previous decode (AR2Policy).

// ---------------------------------------------------------------------------
// Warm start — per-block first shot.

// WarmStartPolicy starts every read of a block listed in Start at that
// block's offsets; reads of other blocks start at factory defaults. A
// failed first attempt recovers through sentinel inference and
// calibration when Sentinel is set (the paper's Section V extension:
// "read operations can start with the tracked optimal read voltages
// ... and our sentinel based prediction is applied once there is a
// read failure"), and otherwise walks the vendor Table relative to the
// start offsets (the history first shot of AR²/PR²).
//
// Exactly one of Table and Sentinel must be set.
//
// Start is computed once before any read (SentinelStart, or a
// characterization sweep) and is never written afterwards, so
// concurrent reads share it without locking and every read is a pure
// function of its seed.
type WarmStartPolicy struct {
	Start    map[int]flash.Offsets
	Table    *DefaultTablePolicy
	Sentinel *SentinelPolicy
}

// Session implements Policy.
func (p *WarmStartPolicy) Session(env *Env) Session {
	start := p.Start[env.B]
	if start != nil {
		env.met.cacheHit()
	} else {
		env.met.cacheMiss()
	}
	s := &warmStartSession{table: p.Table, nv: env.Coding().NumVoltages(), start: start}
	if p.Sentinel != nil {
		s.sentinel = p.Sentinel.Session(env).(*sentinelSession)
		// The sentinel k=1 step measures the error difference at the
		// default sentinel voltage; an LSB readout taken at the start
		// offsets cannot stand in for that sense.
		s.sentinel.senseLSB = start != nil
	}
	return s
}

type warmStartSession struct {
	table *DefaultTablePolicy
	nv    int
	// start is the block's start vector (nil when the block has none).
	start    flash.Offsets
	sentinel *sentinelSession
}

func (s *warmStartSession) NextOffsets(k int, prior flash.Bitmap, priorOfs flash.Offsets) (flash.Offsets, bool) {
	if k == 0 {
		if s.start != nil {
			return s.start.Clone(), true
		}
		return flash.ZeroOffsets(s.nv), true
	}
	if s.sentinel != nil {
		return s.sentinel.NextOffsets(k, prior, priorOfs)
	}
	// Resume the vendor walk from the start point rather than from
	// factory defaults: entry k is applied relative to it.
	ofs := s.table.Entry(k, s.nv)
	for v := 0; v < s.nv && v < len(s.start); v++ {
		ofs[v] += s.start[v]
	}
	return ofs, true
}

// SentinelStart infers block b's start offsets from one sense of
// wordline wl at the default sentinel voltage. It returns false when
// wl is unprogrammed.
func SentinelStart(chip *flash.Chip, eng *sentinel.Engine, b, wl int, seed uint64) (flash.Offsets, bool) {
	if !chip.IsProgrammed(b, wl) {
		return nil, false
	}
	sense := chip.Sense(b, wl, eng.Model.SentinelVoltage, 0, mathx.Mix3(seed, 0x3a3d, uint64(b)))
	_, ofs := eng.Infer(sense)
	flash.PutBitmap(sense)
	return ofs, true
}

// ---------------------------------------------------------------------------
// AR² — pipelined retry stepping.

// AR2Policy walks the same vendor table as DefaultTablePolicy but
// pipelines the steps: while attempt k's ECC decode runs, attempt k+1's
// sense is already being issued on the latched wordline, so each retry
// hides its ECC decode (see StepLatency).
// Retry counts are identical to the serial table by construction; only
// the per-read latency (and Result.OverlapSavedUS) differ.
type AR2Policy struct {
	Table *DefaultTablePolicy
}

// NewAR2 wraps a vendor table in pipelined stepping.
func NewAR2(table *DefaultTablePolicy) *AR2Policy {
	return &AR2Policy{Table: table}
}

// Session implements Policy.
func (p *AR2Policy) Session(env *Env) Session {
	return tableSession{p: p.Table, nv: env.Coding().NumVoltages(), pipelined: true}
}

package retry

import (
	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/sentinel"
)

// The adaptive read stack, after the AR²/PR² follow-on literature
// (Park et al.): start each read near the last-known-good voltage so
// the first attempt usually lands (HistoryPolicy), pipeline consecutive
// retry steps so a retry's sense hides behind the previous decode
// (AR2Policy), and seed the history from sentinel inference so the two
// techniques compose (SentinelHistoryPolicy).

// ---------------------------------------------------------------------------
// History — last-known-good first shot.

// HistoryPolicy starts every read at the block's cached last-known-good
// offsets and resumes the vendor table walk from that point on failure.
// With WriteBack on, each successful read stores its final offsets back
// into the cache, so the block's entry tracks drift read-by-read.
// Leave WriteBack off (a frozen cache, warmed beforehand) where
// deterministic results across concurrent readers are contractual —
// see the HistCache determinism notes.
type HistoryPolicy struct {
	Cache     *HistCache
	Table     *DefaultTablePolicy
	WriteBack bool
}

// NewHistoryPolicy wires a cache and the table fallback together.
func NewHistoryPolicy(cache *HistCache, table *DefaultTablePolicy, writeBack bool) *HistoryPolicy {
	return &HistoryPolicy{Cache: cache, Table: table, WriteBack: writeBack}
}

// Name implements Policy.
func (p *HistoryPolicy) Name() string { return "history" }

// Session implements Policy.
func (p *HistoryPolicy) Session(env *Env) Session {
	return &historySession{p: p, env: env}
}

type historySession struct {
	p   *HistoryPolicy
	env *Env
	// base is the cached offset vector applied at attempt 0 (nil on a
	// cache miss); retries walk the table relative to it.
	base flash.Offsets
}

func (s *historySession) NextOffsets(k int, _ flash.Bitmap, _ flash.Offsets) (flash.Offsets, bool) {
	nv := s.env.Coding().NumVoltages()
	if k == 0 {
		if ofs, ok := s.p.Cache.Get(s.env.B); ok {
			s.env.met.cacheHit()
			s.base = ofs
			return ofs, true
		}
		s.env.met.cacheMiss()
		return flash.ZeroOffsets(nv), true
	}
	// Resume the vendor walk from the cached point rather than from
	// factory defaults: entry k is applied relative to the base.
	ofs := s.p.Table.Entry(k, nv)
	for v := 0; v < nv && v < len(s.base); v++ {
		ofs[v] += s.base[v]
	}
	return ofs, true
}

// Finish implements FinishingSession: successful reads write their
// final offsets back as the block's new last-known-good point.
func (s *historySession) Finish(res *Result) {
	if !s.p.WriteBack || !res.OK || res.Err != nil {
		return
	}
	if s.p.Cache.Put(s.env.B, res.FinalOffsets) {
		s.env.met.cacheEvict()
	}
}

// ---------------------------------------------------------------------------
// AR² — pipelined retry stepping.

// AR2Policy walks the same vendor table as DefaultTablePolicy but
// pipelines the steps: while attempt k's ECC decode runs, attempt k+1's
// sense is already being issued on the latched wordline, so each retry
// hides min(decode, sense) of its cost (see LatencyModel.StepLatency).
// Retry counts are identical to the serial table by construction; only
// the per-read latency (and Result.OverlapSavedUS) differ.
type AR2Policy struct {
	Table *DefaultTablePolicy
}

// NewAR2 wraps a vendor table in pipelined stepping.
func NewAR2(table *DefaultTablePolicy) *AR2Policy {
	return &AR2Policy{Table: table}
}

// Name implements Policy.
func (p *AR2Policy) Name() string { return "ar2" }

// Session implements Policy.
func (p *AR2Policy) Session(env *Env) Session {
	return tableSession{p: p.Table, nv: env.Coding().NumVoltages(), pipelined: true}
}

// ---------------------------------------------------------------------------
// Sentinel + history — cache-seeded first shot, sentinel recovery.

// SentinelHistoryPolicy consults the offset-history cache for the first
// attempt and falls through to sentinel inference and calibration on
// failure, writing the final offsets back on success (when WriteBack).
// Sentinel inference both recovers failed reads and — via
// WarmHistCache — seeds the cache in the first place, so the policy is
// the paper's sentinel read path with an AR²-style warm start.
type SentinelHistoryPolicy struct {
	Cache     *HistCache
	Sentinel  *SentinelPolicy
	WriteBack bool
}

// NewSentinelHistory wires a cache and a sentinel policy together.
func NewSentinelHistory(cache *HistCache, sent *SentinelPolicy, writeBack bool) *SentinelHistoryPolicy {
	return &SentinelHistoryPolicy{Cache: cache, Sentinel: sent, WriteBack: writeBack}
}

// Name implements Policy.
func (p *SentinelHistoryPolicy) Name() string { return "sentinel+history" }

// Session implements Policy.
func (p *SentinelHistoryPolicy) Session(env *Env) Session {
	var cached flash.Offsets
	if ofs, ok := p.Cache.Get(env.B); ok {
		env.met.cacheHit()
		cached = ofs
	} else {
		env.met.cacheMiss()
	}
	sent := p.Sentinel.Session(env).(*sentinelSession)
	// Same subtlety as CombinedPolicy: a first attempt at cached offsets
	// leaves no default-voltage LSB readout to reuse.
	sent.senseLSB = cached != nil
	return &sentinelHistorySession{p: p, env: env, cached: cached, sentinel: sent}
}

type sentinelHistorySession struct {
	p        *SentinelHistoryPolicy
	env      *Env
	cached   flash.Offsets
	sentinel *sentinelSession
}

func (s *sentinelHistorySession) NextOffsets(k int, prior flash.Bitmap, priorOfs flash.Offsets) (flash.Offsets, bool) {
	if k == 0 && s.cached != nil {
		return s.cached, true
	}
	return s.sentinel.NextOffsets(k, prior, priorOfs)
}

// Finish implements FinishingSession.
func (s *sentinelHistorySession) Finish(res *Result) {
	if !s.p.WriteBack || !res.OK || res.Err != nil {
		return
	}
	if s.p.Cache.Put(s.env.B, res.FinalOffsets) {
		s.env.met.cacheEvict()
	}
}

// ---------------------------------------------------------------------------
// Cache warming.

// WarmHistCache seeds the cache with sentinel-inferred offsets for the
// given blocks, probing wordline wl of each: one sense at the default
// sentinel voltage feeds the engine's inference and the inferred offset
// vector becomes the block's last-known-good entry. Unprogrammed probe
// wordlines are skipped. Warming walks blocks sequentially, so — under
// cache capacity — the contents are a pure function of the arguments;
// this is the determinism anchor of the frozen-cache replay paths.
// Returns the number of blocks seeded.
func WarmHistCache(cache *HistCache, chip *flash.Chip, eng *sentinel.Engine, blocks []int, wl int, seed uint64) int {
	sv := eng.Model.SentinelVoltage
	n := 0
	for _, b := range blocks {
		if !chip.IsProgrammed(b, wl) {
			continue
		}
		sense := chip.Sense(b, wl, sv, 0, mathx.Mix3(seed, 0x3a3d, uint64(b)))
		_, ofs := eng.Infer(sense)
		flash.PutBitmap(sense)
		cache.Put(b, ofs)
		n++
	}
	return n
}

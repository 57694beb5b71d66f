package retry

import "sentinel3d/internal/flash"

// CombinedPolicy implements the extension the paper sketches in Section V:
// "read operations can start with the tracked optimal read voltages to
// reduce the failure rate of the first read operation, and our sentinel
// based prediction is applied once there is a read failure."
//
// The first attempt uses the block's tracked offsets (when available);
// any failure falls through to sentinel inference and calibration.
type CombinedPolicy struct {
	Tracking *TrackingPolicy
	Sentinel *SentinelPolicy
}

// NewCombined wires a tracking policy and a sentinel policy together.
func NewCombined(tracking *TrackingPolicy, sentinel *SentinelPolicy) *CombinedPolicy {
	return &CombinedPolicy{Tracking: tracking, Sentinel: sentinel}
}

// Name implements Policy.
func (p *CombinedPolicy) Name() string { return "tracking+sentinel" }

// Session implements Policy.
func (p *CombinedPolicy) Session(env *Env) Session {
	tracked := p.Tracking.Tracked(env.B)
	sent := p.Sentinel.Session(env).(*sentinelSession)
	// The sentinel k=1 step measures the error difference at the *default*
	// sentinel voltage. An LSB readout taken at the tracked offsets
	// cannot stand in for that sense, so force the auxiliary read.
	sent.senseLSB = tracked != nil
	return &combinedSession{tracked: tracked, sentinel: sent}
}

type combinedSession struct {
	tracked  flash.Offsets
	sentinel *sentinelSession
}

func (s *combinedSession) NextOffsets(k int, prior flash.Bitmap, priorOfs flash.Offsets) (flash.Offsets, bool) {
	if k == 0 && s.tracked != nil {
		return s.tracked, true
	}
	return s.sentinel.NextOffsets(k, prior, priorOfs)
}

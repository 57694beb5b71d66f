// Package fault is a deterministic, seed-driven fault-injection layer for
// the simulated flash stack. It models the failure modes that make any
// single voltage-inference path untrustworthy in production controllers:
//
//   - stuck/corrupted cells in the sentinel region (sentinels wear and
//     retain exactly like user cells, so the paper's reserved cells can
//     themselves lie);
//   - transient sense-noise bursts affecting a whole read operation;
//   - outlier wordlines with an anomalous Vth shift (early retention
//     loss, process-variation outliers);
//   - block-level program/erase failures at the address-mapping
//     (ftl.FTL) layer.
//
// Every decision is a pure hash of (profile seed, physical address,
// operation key) via the mathx seed-splitting primitives — never of call
// order — so faulted experiments are byte-identical at any worker count,
// exactly like the fault-free ones.
//
// The Injector implements both flash.FaultModel (attach with
// chip.SetFaults) and ftl.PEFaultModel (assign to FTL.Faults).
package fault

import (
	"fmt"

	"sentinel3d/internal/mathx"
)

// Salts separating the injector's independent decision streams.
const (
	saltStuck   = 0xfa17001
	saltStuckHi = 0xfa17002
	saltBurst   = 0xfa17003
	saltOutlier = 0xfa17004
	saltFTLProg = 0xfa17007
	saltFTLErsd = 0xfa17008
)

// Profile describes one composable set of fault processes. Zero rates
// disable the corresponding process; the zero Profile injects nothing.
type Profile struct {
	// Seed keys every fault decision. Two injectors with equal profiles
	// behave identically; changing the seed redraws all fault locations.
	Seed uint64

	// SentinelStuckRate is the per-cell probability that a cell inside
	// SentinelRegion is stuck: its threshold voltage reads pinned far
	// outside the voltage window regardless of programmed state.
	SentinelStuckRate float64
	// SentinelRegion is the [start, end) cell-index range subject to
	// sentinel-region corruption (typically the resolved sentinel span of
	// the layout; the OOB tail).
	SentinelRegion [2]int
	// StuckHighFraction is the fraction of stuck cells pinned above the
	// window (the rest pin below). 1 models a worst-case biased clamp that
	// skews the error-difference rate; 0.5 models symmetric corruption.
	StuckHighFraction float64

	// BurstRate is the per-read-operation probability of a transient
	// sense-noise burst: every cell of that read gains extra Gaussian
	// noise of BurstSigma.
	BurstRate  float64
	BurstSigma float64

	// OutlierWLRate is the per-wordline probability of an anomalous,
	// frozen extra Vth shift of OutlierShift (sign drawn per wordline)
	// applied to all its cells.
	OutlierWLRate float64
	OutlierShift  float64

	// FTLProgramFailRate / FTLEraseFailRate are the per-operation failure
	// probabilities consulted by the FTL layer (ftl.PEFaultModel); they
	// drive bad-block retirement in the SSD simulator, which has no
	// threshold-voltage chip underneath its address map.
	FTLProgramFailRate float64
	FTLEraseFailRate   float64
}

// Validate reports profile errors.
func (p Profile) Validate() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"SentinelStuckRate", p.SentinelStuckRate},
		{"BurstRate", p.BurstRate},
		{"OutlierWLRate", p.OutlierWLRate},
		{"FTLProgramFailRate", p.FTLProgramFailRate},
		{"FTLEraseFailRate", p.FTLEraseFailRate},
	}
	for _, r := range rates {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("fault: %s %v out of [0,1]", r.name, r.v)
		}
	}
	if p.StuckHighFraction < 0 || p.StuckHighFraction > 1 {
		return fmt.Errorf("fault: StuckHighFraction %v out of [0,1]", p.StuckHighFraction)
	}
	if p.SentinelStuckRate > 0 && p.SentinelRegion[1] <= p.SentinelRegion[0] {
		return fmt.Errorf("fault: SentinelStuckRate %v with empty region %v",
			p.SentinelStuckRate, p.SentinelRegion)
	}
	if p.BurstRate > 0 && p.BurstSigma <= 0 {
		return fmt.Errorf("fault: BurstRate %v with non-positive BurstSigma %v",
			p.BurstRate, p.BurstSigma)
	}
	if p.OutlierWLRate > 0 && p.OutlierShift == 0 {
		return fmt.Errorf("fault: OutlierWLRate %v with zero OutlierShift",
			p.OutlierWLRate)
	}
	return nil
}

// stuckShift is the Vth perturbation magnitude of a stuck cell in
// normalized voltage units, far outside any read window.
const stuckShift float64 = 4096

// Injector applies a Profile. It is immutable after construction and safe
// for unlimited concurrent use.
type Injector struct {
	p Profile
}

// New validates the profile and builds an injector.
func New(p Profile) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Injector{p: p}, nil
}

// MustNew is New but panics on error; for tests and examples.
func MustNew(p Profile) *Injector {
	in, err := New(p)
	if err != nil {
		panic(err)
	}
	return in
}

// u01 maps a hash to a uniform value in [0, 1).
func u01(h uint64) float64 { return float64(h>>11) * (1.0 / (1 << 53)) }

// hit reports whether the hashed decision h fires at the given rate.
func hit(h uint64, rate float64) bool { return rate > 0 && u01(h) < rate }

// ---------------------------------------------------------------------------
// flash.FaultModel

// PerturbVth implements flash.FaultModel: stuck sentinel-region cells,
// outlier-wordline shifts, and sense-noise bursts, in that order.
func (in *Injector) PerturbVth(wl int, readSeed uint64, vth []float64) {
	p := in.p
	if p.SentinelStuckRate > 0 {
		lo, hi := p.SentinelRegion[0], p.SentinelRegion[1]
		if lo < 0 {
			lo = 0
		}
		if hi > len(vth) {
			hi = len(vth)
		}
		for i := lo; i < hi; i++ {
			// Frozen per physical cell: independent of read and epoch.
			h := mathx.Mix4(p.Seed^saltStuck, 0, uint64(wl), uint64(i))
			if !hit(h, p.SentinelStuckRate) {
				continue
			}
			shift := stuckShift
			if !hit(mathx.Hash64(h^saltStuckHi), p.StuckHighFraction) {
				shift = -shift
			}
			vth[i] += shift
		}
	}
	if p.OutlierWLRate > 0 {
		h := mathx.Mix3(p.Seed^saltOutlier, 0, uint64(wl))
		if hit(h, p.OutlierWLRate) {
			shift := p.OutlierShift
			if mathx.Hash64(h)&1 == 1 {
				shift = -shift
			}
			for i := range vth {
				vth[i] += shift
			}
		}
	}
	if p.BurstRate > 0 {
		h := mathx.Mix4(p.Seed^saltBurst, 0, uint64(wl), readSeed)
		if hit(h, p.BurstRate) {
			rng := mathx.NewRand(mathx.Hash64(h))
			for i := range vth {
				vth[i] += float64(rng.NormFloat64() * p.BurstSigma)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// ftl.PEFaultModel

// PageProgramFails implements ftl.PEFaultModel: the decision is keyed by
// the page's full physical address plus the block's erase generation, so
// replays are deterministic and a retired block's replacement redraws.
func (in *Injector) PageProgramFails(plane, block, page, erases int) bool {
	return hit(mathx.Mix4(in.p.Seed^saltFTLProg,
		uint64(plane), uint64(block), uint64(page)<<20|uint64(erases)),
		in.p.FTLProgramFailRate)
}

// BlockEraseFails implements ftl.PEFaultModel.
func (in *Injector) BlockEraseFails(plane, block, erases int) bool {
	return hit(mathx.Mix4(in.p.Seed^saltFTLErsd,
		uint64(plane), uint64(block), uint64(erases)),
		in.p.FTLEraseFailRate)
}

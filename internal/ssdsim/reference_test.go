package ssdsim

import "sentinel3d/internal/trace"

// The sequential reference replay. The Engine is the package's only
// replay entry point; these two methods are the plain in-order loop it
// must reproduce — TestEngineGoldenSingleShard and the lifetime and
// serving oracles compare against them, and BenchmarkReplaySequential
// and BenchmarkPrecondition time them as the baseline the engine's CI
// gates are ratios of.

// newSim builds a standalone simulator over its own draw table, for the
// reference replay and the package tests that drive one Sim directly.
func newSim(cfg Config, sampler RetrySampler) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	draws, err := newDrawTable(cfg, sampler)
	if err != nil {
		return nil, err
	}
	return newSimWith(cfg, draws)
}

// preconditionBitmapMaxLPN caps the bound precondition derives from the
// trace: a 1<<27-page universe is a 16 MiB bitmap. Sparser traces use
// the sort path.
const preconditionBitmapMaxLPN = 1 << 27

// precondition maps every LPN a trace will read, so reads hit valid data
// (SSDSim warms the device the same way). It costs no simulated time.
// The trace is in hand, so the LPN bound is scanned from it and compact
// traces dedup with a bitmap instead of a sort.
func (s *Sim) precondition(reqs []trace.Request) error {
	var last int64 = -1
	for i := range reqs {
		last = max(last, reqs[i].LPN+int64(reqs[i].Pages)-1)
	}
	var bound int64
	if last >= 0 && last < preconditionBitmapMaxLPN {
		bound = last
	}
	d := newLPNDedup(bound)
	for i := range reqs {
		d.addRange(reqs[i].LPN, reqs[i].Pages)
	}
	return d.each(func(lpn int64) error {
		return s.ftl.WriteInto(lpn, &s.wres)
	})
}

// run services the requests in arrival order and returns the report
// with full latency collection and exact percentiles. Within a request,
// page operations are issued in order; the request completes when its
// last page does.
func (s *Sim) run(reqs []trace.Request) (*Report, error) {
	rep := &Report{collect: true}
	s.beginReplay()
	if err := s.replaySlice(reqs, rep); err != nil {
		return nil, err
	}
	s.flushMetrics(rep)
	s.flushCounters(rep)
	rep.finalize()
	return rep, nil
}

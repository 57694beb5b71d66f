package ssdsim

import (
	"strings"
	"testing"

	"sentinel3d/internal/fault"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/trace"
)

func TestSamplerRejectsOutOfRangePageType(t *testing.T) {
	e := &EmpiricalSampler{PerPage: [][]RetryOutcome{{{Retries: 1}}, {{Retries: 2}}}}
	rng := mathx.NewRand(1)
	for _, p := range []int{-1, 2, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Sample(%d) did not panic", p)
				}
			}()
			e.Sample(p, rng)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MeanRetries(%d) did not panic", p)
				}
			}()
			e.MeanRetries(p)
		}()
	}
}

func TestNewRejectsMismatchedSampler(t *testing.T) {
	// TLC config (3 bits) with a 2-pool sampler: the old mod-wrap made
	// this silently sample MSB reads from the LSB pool.
	e := &EmpiricalSampler{PerPage: [][]RetryOutcome{{{Retries: 1}}, {{Retries: 2}}}}
	if _, err := newSim(testSSDConfig(), e); err == nil ||
		!strings.Contains(err.Error(), "page types") {
		t.Fatalf("accepted 2-pool sampler for 3-bit config (err=%v)", err)
	}
	e3 := &EmpiricalSampler{PerPage: make([][]RetryOutcome, 3)}
	if _, err := newSim(testSSDConfig(), e3); err != nil {
		t.Fatal(err)
	}
}

func TestReportPropagatesDegradedOutcomes(t *testing.T) {
	spec, _ := trace.WorkloadByName("hm_0")
	spec.WorkingSetPages = 1 << 10
	reqs, _ := trace.Generate(spec, 2000, 3)
	s, err := newSim(testSSDConfig(),
		fixedSampler(RetryOutcome{Retries: 3, UsedFallback: true, Uncorrectable: true}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.precondition(reqs); err != nil {
		t.Fatal(err)
	}
	rep, err := s.run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Every mapped page read carries the degraded flags, so both counters
	// must be positive and equal; they are bounded by the total number of
	// page-level reads issued (requests can span several pages).
	if rep.UncorrectableReads == 0 || rep.FallbackReads != rep.UncorrectableReads {
		t.Fatalf("degraded counters not propagated: %+v", rep)
	}
	var readPages int64
	for _, r := range reqs {
		if r.Op == trace.Read {
			readPages += int64(r.Pages)
		}
	}
	if rep.UncorrectableReads > readPages {
		t.Fatalf("uncorrectable reads %d exceed %d page reads",
			rep.UncorrectableReads, readPages)
	}
}

func TestPEFaultsRetireBlocksInReport(t *testing.T) {
	spec, _ := trace.WorkloadByName("wdev_0")
	spec.WorkingSetPages = 1 << 10
	reqs, _ := trace.Generate(spec, 4000, 4)
	cfg := testSSDConfig()
	cfg.PEFaults = fault.MustNew(fault.Profile{
		Seed:               5,
		FTLProgramFailRate: 0.0005,
		FTLEraseFailRate:   0.002,
	})
	run := func() (int64, float64) {
		s, err := newSim(cfg, fixedSampler(RetryOutcome{}))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.precondition(reqs); err != nil {
			t.Fatal(err)
		}
		rep, err := s.run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return rep.RetiredBlocks, rep.MeanReadUS
	}
	retired, mean := run()
	if retired == 0 {
		t.Fatal("faulty medium retired no blocks")
	}
	retired2, mean2 := run()
	if retired != retired2 || mean != mean2 {
		t.Fatalf("faulted run not deterministic: (%d,%v) vs (%d,%v)",
			retired, mean, retired2, mean2)
	}
}

package ssdsim

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"sentinel3d/internal/ecc"
	"sentinel3d/internal/flash"
	"sentinel3d/internal/ftl"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/physics"
	"sentinel3d/internal/retry"
	"sentinel3d/internal/trace"
)

// fixedSampler returns a TLC sampler whose every pool holds the single
// outcome out, so every read draws it.
func fixedSampler(out RetryOutcome) *EmpiricalSampler {
	return &EmpiricalSampler{PerPage: [][]RetryOutcome{{out}, {out}, {out}}}
}

func testSSDConfig() Config {
	cfg := DefaultConfig()
	cfg.Geo = ftl.Geometry{
		Channels: 2, ChipsPerChan: 1, DiesPerChip: 2, PlanesPerDie: 2,
		BlocksPerPlane: 16, PagesPerBlock: 96,
	}
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testSSDConfig()
	bad.Bits = 5
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted 5 bits")
	}
	bad = testSSDConfig()
	bad.Geo.PagesPerBlock = 97
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted non-divisible pages per block")
	}
	if _, err := newSim(testSSDConfig(), nil); err == nil {
		t.Fatal("accepted nil sampler")
	}
}

func TestReadLatencyScalesWithRetries(t *testing.T) {
	spec, _ := trace.WorkloadByName("mds_0")
	spec.WorkingSetPages = 1 << 12
	reqs, err := trace.Generate(spec, 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(retries int) float64 {
		s, err := newSim(testSSDConfig(), fixedSampler(RetryOutcome{Retries: retries}))
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
		return rep.MeanReadUS
	}
	l0, l6 := run(0), run(6)
	if l6 <= l0*2 {
		t.Fatalf("6 retries (%v µs) should be far slower than 0 (%v µs)", l6, l0)
	}
}

func TestReportStatistics(t *testing.T) {
	spec, _ := trace.WorkloadByName("hm_0")
	spec.WorkingSetPages = 1 << 12
	reqs, _ := trace.Generate(spec, 5000, 2)
	s, err := newSim(testSSDConfig(), fixedSampler(RetryOutcome{}))
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
	if rep.Requests != 5000 || rep.Reads+rep.Writes != 5000 {
		t.Fatalf("counts wrong: %+v", rep)
	}
	if len(rep.ReadLatencies) != rep.Reads {
		t.Fatal("latency list length mismatch")
	}
	if rep.MeanReadUS <= 0 || rep.P99ReadUS < rep.P95ReadUS ||
		rep.P95ReadUS < rep.MeanReadUS*0.2 {
		t.Fatalf("stats implausible: %+v", rep)
	}
	if rep.MeanWriteUS <= 0 {
		t.Fatal("no write latency recorded")
	}
}

func TestUnmappedReadCheap(t *testing.T) {
	cfg := testSSDConfig()
	s, err := newSim(cfg, fixedSampler(RetryOutcome{Retries: 9}))
	if err != nil {
		t.Fatal(err)
	}
	reqs := []trace.Request{{ArriveUS: 0, Op: trace.Read, LPN: 1234, Pages: 2}}
	rep, err := s.run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Both pages are unmapped: serviced at the latency model's documented
	// mapping-lookup cost, counted, and free of retry accounting.
	if rep.ReadLatencies[0] != retry.MapLookupUS {
		t.Fatalf("unmapped read cost %v µs, want MapLookup %v",
			rep.ReadLatencies[0], retry.MapLookupUS)
	}
	if rep.UnmappedReads != 2 {
		t.Fatalf("UnmappedReads = %d, want 2", rep.UnmappedReads)
	}
	if rep.TotalRetries != 0 {
		t.Fatalf("unmapped reads accrued %d retries", rep.TotalRetries)
	}
}

// TestPreconditionSortedDedup pins the sorted-slice dedup to the
// map-based one it replaced: ascending unique write order, so the FTL
// state (and any later read's timing) is unchanged.
func TestPreconditionSortedDedup(t *testing.T) {
	reqs := []trace.Request{
		{Op: trace.Write, LPN: 90, Pages: 3},
		{Op: trace.Read, LPN: 5, Pages: 2},
		{Op: trace.Read, LPN: 91, Pages: 2}, // overlaps the first request
		{Op: trace.Read, LPN: 5, Pages: 1},  // exact duplicate
	}
	s, err := newSim(testSSDConfig(), fixedSampler(RetryOutcome{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.precondition(reqs); err != nil {
		t.Fatal(err)
	}
	want := []int64{5, 6, 90, 91, 92}
	if got := s.ftl.HostWrites; got != int64(len(want)) {
		t.Fatalf("%d host writes, want %d (duplicates not removed?)", got, len(want))
	}
	// Sorted write order means sorted LPNs land on consecutive
	// round-robin planes; the first LPN (5) must be on plane 0.
	for i, lpn := range want {
		ppn, ok := s.ftl.Translate(lpn)
		if !ok {
			t.Fatalf("LPN %d unmapped after preconditioning", lpn)
		}
		if ppn.Plane != i%s.cfg.Geo.Planes() {
			t.Fatalf("LPN %d on plane %d; write order not ascending-unique", lpn, ppn.Plane)
		}
	}
}

func TestQueueingDelaysBursts(t *testing.T) {
	// Two back-to-back reads of the same page must queue on the die.
	s, err := newSim(testSSDConfig(), fixedSampler(RetryOutcome{}))
	if err != nil {
		t.Fatal(err)
	}
	pre := []trace.Request{{Op: trace.Read, LPN: 0, Pages: 1}}
	if err := s.precondition(pre); err != nil {
		t.Fatal(err)
	}
	reqs := []trace.Request{
		{ArriveUS: 0, Op: trace.Read, LPN: 0, Pages: 1},
		{ArriveUS: 0, Op: trace.Read, LPN: 0, Pages: 1},
	}
	rep, err := s.run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReadLatencies[1] <= rep.ReadLatencies[0] {
		t.Fatalf("no queueing: %v then %v", rep.ReadLatencies[0], rep.ReadLatencies[1])
	}
}

func TestEmpiricalSampler(t *testing.T) {
	e := &EmpiricalSampler{PerPage: [][]RetryOutcome{
		{{Retries: 0}},
		{{Retries: 1}, {Retries: 3}},
		{{Retries: 5}},
	}}
	rng := mathx.NewRand(1)
	if got := e.Sample(0, rng); got.Retries != 0 {
		t.Fatal("page 0 sample wrong")
	}
	if m := e.MeanRetries(1); m != 2 {
		t.Fatalf("mean = %v, want 2", m)
	}
	for i := 0; i < 20; i++ {
		r := e.Sample(1, rng).Retries
		if r != 1 && r != 3 {
			t.Fatalf("unexpected sample %d", r)
		}
	}
	// Empty pool yields zero outcome.
	empty := &EmpiricalSampler{PerPage: [][]RetryOutcome{{}}}
	if got := empty.Sample(0, rng); got.Retries != 0 {
		t.Fatal("empty pool sample wrong")
	}
}

func TestBuildSamplerFromChip(t *testing.T) {
	// Integration: measure a real chip's retry distribution and confirm
	// the sampler reflects aging.
	cfg := flash.Config{
		Kind: flash.TLC, Layers: 8, WordlinesPerLayer: 2,
		CellsPerWordline: 8192, OOBFraction: 0.119, Seed: 11, CacheZ: true,
	}
	chip := flash.MustNew(cfg)
	rng := mathx.NewRand(1)
	for wl := 0; wl < cfg.WordlinesPerBlock(); wl++ {
		chip.ProgramRandom(wl, rng)
	}
	chip.Cycle(5000)
	chip.Age(physics.YearHours, physics.RoomTempC)
	ctl, err := retry.NewController(chip, ecc.CapabilityModel{FrameBits: 8192, T: 14}, 15)
	if err != nil {
		t.Fatal(err)
	}
	pol := retry.NewDefaultTable(chip, 2)
	sampler, err := BuildSampler(ctl, pol, 0, []int{0, 1, 2, 3}, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(sampler.PerPage) != 3 {
		t.Fatalf("%d page pools", len(sampler.PerPage))
	}
	for p, pool := range sampler.PerPage {
		if len(pool) != 8 {
			t.Fatalf("page %d pool size %d", p, len(pool))
		}
	}
	// MSB pages should retry at least as much as LSB pages on average.
	if sampler.MeanRetries(2) < sampler.MeanRetries(0) {
		t.Fatalf("MSB mean %v < LSB mean %v",
			sampler.MeanRetries(2), sampler.MeanRetries(0))
	}
	// Reps must be positive, the block 0; unprogrammed wordlines rejected.
	if _, err := BuildSampler(ctl, pol, 0, []int{0}, 0, 1); err == nil {
		t.Fatal("accepted zero reps")
	}
	for _, b := range []int{-1, 1} {
		if _, err := BuildSampler(ctl, pol, b, []int{0}, 1, 1); !errors.Is(err, retry.ErrBadAddress) {
			t.Fatalf("block %d: err %v, want ErrBadAddress", b, err)
		}
	}
	empty := flash.MustNew(cfg)
	ctl2, _ := retry.NewController(empty, ecc.DefaultCapability(), 5)
	if _, err := BuildSampler(ctl2, pol, 0, []int{0}, 1, 1); err == nil {
		t.Fatal("accepted unprogrammed wordline")
	}
}

func TestDeterministicRuns(t *testing.T) {
	spec, _ := trace.WorkloadByName("wdev_0")
	spec.WorkingSetPages = 1 << 12
	reqs, _ := trace.Generate(spec, 2000, 5)
	run := func() float64 {
		s, err := newSim(testSSDConfig(), fixedSampler(RetryOutcome{Retries: 2}))
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
		return rep.MeanReadUS
	}
	if a, b := run(), run(); math.Abs(a-b) > 1e-9 {
		t.Fatalf("runs differ: %v vs %v", a, b)
	}
}

func TestLevelsOf(t *testing.T) {
	want := []int{1, 2, 4, 8}
	for p, w := range want {
		if levelsOf(p) != w {
			t.Fatalf("levelsOf(%d) = %d, want %d", p, levelsOf(p), w)
		}
	}
}

// TestDrawTableMatchesPageCost: the replay's pre-priced draw table is
// pageCost evaluated ahead of time, nothing else. Every record must
// equal pageCost(pageType, &pool[i]) bit for bit and carry the
// outcome's counts, flags and pool index, for a frozen sampler (with an
// empty pool, whose stand-in is the zero outcome) and for every pool of
// a lifetime grid; and a table draw must consume the RNG exactly like
// the sampler draw it replaces. That draw is the sampler contract,
// written out here: one rng.Intn(len(pool)) index, and no RNG draw at
// all from an empty pool (whose outcome is the zero outcome);
// EmpiricalSampler.Sample must keep it too.
func TestDrawTableMatchesPageCost(t *testing.T) {
	frozen := &EmpiricalSampler{PerPage: [][]RetryOutcome{
		{{Retries: 0}, {Retries: 2, AuxSenses: 1}},
		{},
		{{Retries: 7, AuxSenses: 3, UsedFallback: true, Uncorrectable: true},
			{Retries: 1, UsedFallback: true}, {Retries: 4, Uncorrectable: true}},
	}}
	for _, c := range []struct {
		name    string
		sampler RetrySampler
	}{{"frozen", frozen}, {"lifetime", lifeSampler()}} {
		draws, err := newDrawTable(testSSDConfig(), c.sampler)
		if err != nil {
			t.Fatal(err)
		}
		for pi, pool := range draws.grid.Pools {
			for pt := 0; pt < draws.bits; pt++ {
				k := pi*draws.bits + pt
				outs := pool.PerPage[pt]
				if len(draws.recs[k]) != len(outs) {
					t.Fatalf("%s pool %d page %d: %d records for %d outcomes",
						c.name, pi, pt, len(draws.recs[k]), len(outs))
				}
				check := func(what string, rec *drawRec, out *RetryOutcome, idx int32) {
					t.Helper()
					die, ch := pageCost(pt, out)
					if math.Float64bits(rec.dieUS) != math.Float64bits(die) ||
						math.Float64bits(rec.chanUS) != math.Float64bits(ch) {
						t.Fatalf("%s pool %d page %d %s: priced (%v, %v), pageCost (%v, %v)",
							c.name, pi, pt, what, rec.dieUS, rec.chanUS, die, ch)
					}
					b := func(v bool) uint8 {
						if v {
							return 1
						}
						return 0
					}
					if int(rec.retries) != out.Retries || int(rec.aux) != out.AuxSenses ||
						rec.fallback != b(out.UsedFallback) || rec.uncorrectable != b(out.Uncorrectable) ||
						rec.idx != idx {
						t.Fatalf("%s pool %d page %d %s: record %+v for outcome %+v at %d",
							c.name, pi, pt, what, *rec, *out, idx)
					}
				}
				for i := range outs {
					check("outcome", &draws.recs[k][i], &outs[i], int32(i))
				}
				if len(outs) == 0 {
					check("empty stand-in", &draws.empty[pt], &RetryOutcome{}, -1)
				}
				contract := func(rng *mathx.Rand) (int32, RetryOutcome) {
					if len(outs) == 0 {
						return -1, RetryOutcome{}
					}
					i := rng.Intn(len(outs))
					return int32(i), outs[i]
				}
				tab, ref, smp := mathx.NewRand(uint64(k)), mathx.NewRand(uint64(k)), mathx.NewRand(uint64(k))
				for n := 0; n < 32; n++ {
					rec := draws.draw(k, pt, tab)
					idx, want := contract(ref)
					if rec.idx != idx {
						t.Fatalf("%s pool %d page %d draw %d: table drew outcome %d, sampler %d",
							c.name, pi, pt, n, rec.idx, idx)
					}
					if got := pool.Sample(pt, smp); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s pool %d page %d draw %d: Sample drew %+v, contract %+v",
							c.name, pi, pt, n, got, want)
					}
				}
				if x := tab.Uint64(); x != ref.Uint64() || x != smp.Uint64() {
					t.Fatalf("%s pool %d page %d: table and sampler draws desynchronised the RNG",
						c.name, pi, pt)
				}
			}
		}
	}
}

package ssdsim

import (
	"math"
	"reflect"
	"testing"

	"sentinel3d/internal/fault"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/obs"
	"sentinel3d/internal/parallel"
	"sentinel3d/internal/physics"
	"sentinel3d/internal/trace"
)

// lifeSampler is the shared synthetic grid for lifetime tests: retries
// grow along both axes, so a replay that ages visibly draws more.
func lifeSampler() *LifetimeSampler {
	return SyntheticLifetimeSampler(3,
		[]int{0, 2000, 5000},
		[]float64{0, 200, 2000, 8760},
		0x5eed)
}

func lifeConfig() *LifetimeConfig {
	return &LifetimeConfig{
		BasePE:             2000,
		BaseRetentionHours: 100,
		Schedule:           physics.SquareWave(25, 55, 2, 0.5),
		HoursPerSecond:     3600, // one trace second spans 3600 device-hours
		CalibPeriodHours:   5,
		CalibDriftHours:    400,
		CalibUS:            300,
	}
}

// TestLifetimeWorkerDeterminism is the satellite acceptance test: a
// lifetime-enabled replay — evolving per-block stress, wear from GC,
// calibration scheduler, metrics on — must produce byte-identical
// reports and deterministic metric renderings at 1, 4 and 8 workers.
func TestLifetimeWorkerDeterminism(t *testing.T) {
	cfg := engineConfig()
	cfg.Life = lifeConfig()
	reqs := engineTrace(t, 20000)

	var base *Report
	var baseProm string
	for _, w := range []int{1, 4, 8} {
		reg := obs.NewRegistry(4)
		eng, err := NewEngine(ReplayConfig{
			Sim: cfg, Shards: 4, Precondition: true, Metrics: reg,
		}, lifeSampler())
		if err != nil {
			t.Fatal(err)
		}
		prev := parallel.SetWorkers(w)
		rep, err := eng.Replay(trace.SliceOpener(reqs))
		parallel.SetWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		prom := promText(reg.Snapshot().Deterministic())
		if base == nil {
			base, baseProm = rep, prom
			if !rep.Life.Enabled || rep.Life.DeviceHours <= 0 {
				t.Fatalf("lifetime state missing from report: %+v", rep.Life)
			}
			if rep.Life.Calibrations == 0 {
				t.Fatal("no calibrations over a multi-period replay")
			}
			continue
		}
		if !reflect.DeepEqual(rep, base) {
			t.Fatalf("lifetime report diverged at %d workers:\n got %+v\nwant %+v",
				w, rep, base)
		}
		if prom != baseProm {
			t.Fatalf("lifetime metric rendering diverged at %d workers", w)
		}
	}
}

// TestLifetimeEngineSingleShardMatchesSimRun: the engine must arm and
// drive the lifetime state exactly like the sequential reference
// (precondition + run on a plain Sim).
func TestLifetimeEngineSingleShardMatchesSimRun(t *testing.T) {
	cfg := engineConfig()
	cfg.Life = lifeConfig()
	reqs := engineTrace(t, 5000)

	sim, err := newSim(cfg, lifeSampler())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.precondition(reqs); err != nil {
		t.Fatal(err)
	}
	want, err := sim.run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ReplayConfig{
		Sim: cfg, Shards: 1, CollectLatencies: true, Precondition: true,
	}, lifeSampler())
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Replay(trace.SliceOpener(reqs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("single-shard lifetime engine diverged from the reference:\n got %+v\nwant %+v", got, want)
	}
}

// TestLifetimeStressEvolves: with a fast retention clock the device
// climbs the sampler grid during the trace, so the replay must draw
// strictly more retries than the same trace crawling through device
// time — and the frozen path (Life nil) must match the slow clock's
// grid-origin behaviour rather than silently aging.
func TestLifetimeStressEvolves(t *testing.T) {
	reqs := engineTrace(t, 8000)
	run := func(life *LifetimeConfig) *Report {
		cfg := engineConfig()
		cfg.Life = life
		sim, err := newSim(cfg, lifeSampler())
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.precondition(reqs); err != nil {
			t.Fatal(err)
		}
		rep, err := sim.run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	slow := run(&LifetimeConfig{HoursPerSecond: 1e-6}) // clock barely moves
	fast := run(&LifetimeConfig{HoursPerSecond: 3.6e6, Schedule: physics.ConstantTemp(55)})
	if fast.Life.DeviceHours <= slow.Life.DeviceHours {
		t.Fatalf("fast clock covered %v h, slow %v h", fast.Life.DeviceHours, slow.Life.DeviceHours)
	}
	if fast.TotalRetries <= slow.TotalRetries {
		t.Fatalf("aging did not raise retries: fast %d, slow %d",
			fast.TotalRetries, slow.TotalRetries)
	}
	if fast.MeanReadUS <= slow.MeanReadUS {
		t.Fatalf("aging did not raise read latency: fast %v, slow %v",
			fast.MeanReadUS, slow.MeanReadUS)
	}
}

// TestLifetimeRetentionSplitExact: one lifetime ticks straight to hour
// T, another ticks there through k random earlier hours, some out of
// order. Under a square-wave schedule, a block still holding pre-replay
// data and a block erased during the replay must read bit-identical
// effective retention in both: effRetention recomputes from the
// (reset, now) endpoints, so no traversal of the clock can drift it.
// This is what keeps lifetime replays byte-identical at any request
// granularity.
func TestLifetimeRetentionSplitExact(t *testing.T) {
	cfg := engineConfig()
	cfg.Life = lifeConfig()
	rng := mathx.NewRand(1357)
	for trial := 0; trial < 200; trial++ {
		direct, split := newLifetime(cfg), newLifetime(cfg)
		endUS := rng.Float64() * 5000 * direct.usPerHour
		resetUS := rng.Float64() * endUS
		for _, l := range []*lifetime{direct, split} {
			l.armed = true
			l.tickUS(resetUS)
			l.BlockErased(0, 1, false)
		}
		for k := 1 + rng.Intn(16); k > 0; k-- {
			split.tickUS(resetUS + rng.Float64()*(endUS-resetUS))
		}
		direct.tickUS(endUS)
		split.tickUS(endUS)
		for _, blk := range []int{0, 1} { // 0 pre-replay, 1 erased at resetUS
			a := direct.effRetention(blk, direct.nowH)
			b := split.effRetention(blk, split.nowH)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("trial %d block %d: split traversal drifted: direct %v (bits %x) vs split %v (bits %x)",
					trial, blk, a, math.Float64bits(a), b, math.Float64bits(b))
			}
		}
	}
}

// TestLifetimeTickClamps: an out-of-order timestamp leaves the clock
// where it is, and a NaN one panics.
func TestLifetimeTickClamps(t *testing.T) {
	cfg := engineConfig()
	cfg.Life = lifeConfig()
	l := newLifetime(cfg)
	l.tickUS(10e6)
	want := l.nowH
	l.tickUS(4e6)
	if l.nowH != want || want <= 0 {
		t.Fatalf("clock at %v h after an earlier tick, want %v", l.nowH, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("tickUS(NaN) did not panic")
		}
	}()
	l.tickUS(math.NaN())
}

// TestCalibrationChargedAsQueueLatency: a read arriving just after a
// periodic calibration came due must queue behind it for (almost) the
// full calibration time.
func TestCalibrationChargedAsQueueLatency(t *testing.T) {
	const calibUS = 500.0
	run := func(life *LifetimeConfig) float64 {
		cfg := engineConfig()
		cfg.Life = life
		sim, err := newSim(cfg, fixedSampler(RetryOutcome{}))
		if err != nil {
			t.Fatal(err)
		}
		warm := []trace.Request{{ArriveUS: 0, Op: trace.Read, LPN: 7, Pages: 1}}
		if err := sim.precondition(warm); err != nil {
			t.Fatal(err)
		}
		// At 1 h/s, the 1-hour calibration period elapses at trace
		// microsecond 1e6; the read arrives 1 µs after that.
		rep, err := sim.run([]trace.Request{
			{ArriveUS: 1e6 + 1, Op: trace.Read, LPN: 7, Pages: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.MeanReadUS
	}
	base := run(&LifetimeConfig{HoursPerSecond: 1})
	delayed := run(&LifetimeConfig{
		HoursPerSecond: 1, CalibPeriodHours: 1, CalibUS: calibUS,
	})
	// The calibration started at the due instant (1e6 µs), the read
	// arrived 1 µs later, so it waits calibUS-1 µs.
	if want := base + calibUS - 1; math.Abs(delayed-want) > 1e-9 {
		t.Fatalf("calibration queue charge: delayed read %v µs, want %v (base %v)",
			delayed, want, base)
	}
}

// TestFailedEraseWearVisibleInLifetime is the fault-injected satellite
// test: erases that fail still wear blocks, and that wear must reach
// the lifetime state and the report.
func TestFailedEraseWearVisibleInLifetime(t *testing.T) {
	cfg := engineConfig()
	cfg.Life = &LifetimeConfig{HoursPerSecond: 3600}
	cfg.PEFaults = fault.MustNew(fault.Profile{
		Seed:             13,
		FTLEraseFailRate: 0.05,
	})
	sim, err := newSim(cfg, lifeSampler())
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite a small working set long enough to force GC erases.
	span := int64(cfg.Geo.PagesTotal() / 8)
	var reqs []trace.Request
	for i := 0; i < cfg.Geo.PagesTotal()*2; i++ {
		reqs = append(reqs, trace.Request{
			ArriveUS: float64(i) * 10,
			Op:       trace.Write,
			LPN:      int64(i*7919) % span,
			Pages:    1,
		})
	}
	rep, err := sim.run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Life.RunErases == 0 || rep.Life.WornBlocks == 0 {
		t.Fatalf("no wear recorded over a GC-heavy replay: %+v", rep.Life)
	}
	if rep.Life.FailedEraseWear == 0 {
		t.Fatalf("failed erases invisible to lifetime state: %+v (retired %d)",
			rep.Life, rep.RetiredBlocks)
	}
	if rep.Life.MaxBlockWear == 0 {
		t.Fatalf("max block wear zero with %d erases", rep.Life.RunErases)
	}
}

// TestFrozenReportUnchangedByLifetimeCode: with Life nil the report —
// including its %v rendering, which the golden digests hash — must not
// mention lifetime state beyond the zero-value struct, and replay
// results must be identical to the pre-lifetime path (covered by the
// frozen golden cells; here we pin the zero value).
func TestFrozenReportUnchangedByLifetimeCode(t *testing.T) {
	cfg := engineConfig()
	sim, err := newSim(cfg, benchSampler())
	if err != nil {
		t.Fatal(err)
	}
	reqs := engineTrace(t, 2000)
	if err := sim.precondition(reqs); err != nil {
		t.Fatal(err)
	}
	rep, err := sim.run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Life != (LifetimeStats{}) {
		t.Fatalf("frozen replay accrued lifetime state: %+v", rep.Life)
	}
	sum := rep.Summary()
	if v := reflect.ValueOf(sum).FieldByName("Life"); v.IsValid() {
		t.Fatal("LifetimeStats leaked into ReportSummary — golden digests would break")
	}
}

// TestLifetimePoolCacheMatchesDirectLookup: the per-block expiry cache
// must resolve exactly the pool that gridPool resolves from the block's
// stress recomputed from scratch. Each trace is serviced one request at
// a time, and after every read each page's block is checked against a
// direct lookup at the clock's current reading (a read neither erases
// nor moves the clock past its own arrival, so the check sees the state
// the draw saw). The second trace overwrites a small span until GC
// erases blocks on a slow clock: pre-replay data sits in a higher
// retention cell than freshly erased blocks, and the cache cannot
// expire on its own, so only the erase-time invalidation keeps it right.
func TestLifetimePoolCacheMatchesDirectLookup(t *testing.T) {
	t.Run("mixed", func(t *testing.T) {
		checkPoolCache(t, engineTrace(t, 12000), lifeConfig(), false)
	})
	t.Run("gc", func(t *testing.T) {
		span := int64(engineGeometry().PagesTotal() / 8)
		var reqs []trace.Request
		for i := 0; i < engineGeometry().PagesTotal()*4; i++ {
			k := i / 2 // writes and reads each cover both LPN parities
			r := trace.Request{ArriveUS: float64(i) * 20, Op: trace.Write, LPN: int64(k*7919) % span, Pages: 1}
			if i%2 == 1 {
				r.Op, r.LPN = trace.Read, int64(k*104729)%span
			}
			reqs = append(reqs, r)
		}
		checkPoolCache(t, reqs,
			&LifetimeConfig{BasePE: 2000, BaseRetentionHours: 1000, HoursPerSecond: 1}, true)
	})
}

func checkPoolCache(t *testing.T, reqs []trace.Request, life *LifetimeConfig, wantErases bool) {
	cfg := engineConfig()
	cfg.Life = life
	ls := lifeSampler()
	sim, err := newSim(cfg, ls)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.precondition(reqs); err != nil {
		t.Fatal(err)
	}
	sim.beginReplay()
	l := sim.life
	rep := &Report{}
	seen := map[*EmpiricalSampler]bool{}
	for _, r := range reqs {
		if err := sim.service(r, rep); err != nil {
			t.Fatal(err)
		}
		if r.Op != trace.Read {
			continue
		}
		now := l.nowH
		for p := 0; p < r.Pages; p++ {
			ppn, ok := sim.ftl.Translate(r.LPN + int64(p))
			if !ok {
				continue
			}
			i := ppn.Plane*l.blocksPerPlane + ppn.Block
			want := ls.gridPool(physics.Stress{
				PECycles:          cfg.Life.BasePE + int(l.cycles[i]),
				EffRetentionHours: l.effRetention(i, now),
			})
			if got := ls.Pools[l.poolIdx[i]]; got != want {
				t.Fatalf("block %d at %v h: cached pool %d, direct lookup disagrees",
					i, now, l.poolIdx[i])
			}
			seen[want] = true
		}
	}
	if rep.TotalRetries == 0 {
		t.Fatal("degenerate comparison: no retries drawn")
	}
	if len(seen) < 2 {
		t.Fatal("degenerate comparison: the replay never left its first grid cell")
	}
	if wantErases && l.runErases == 0 {
		t.Fatal("degenerate comparison: no erases during the replay")
	}
}

func TestLifetimeSamplerValidate(t *testing.T) {
	good := lifeSampler()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*LifetimeSampler{
		{PEs: nil, Hours: []float64{0}},
		{PEs: []int{0, 0}, Hours: []float64{0}, Pools: make([]*EmpiricalSampler, 2)},
		{PEs: []int{0}, Hours: []float64{5, 1}, Pools: make([]*EmpiricalSampler, 2)},
		{PEs: []int{0}, Hours: []float64{0}, Pools: []*EmpiricalSampler{nil}},
	}
	for i, ls := range bad {
		if err := ls.Validate(); err == nil {
			t.Fatalf("bad grid %d accepted", i)
		}
	}
	// Grid lookup floors and clamps.
	if p := good.gridPool(physics.Stress{PECycles: -5}); p != good.Pools[0] {
		t.Fatal("negative PE did not clamp to origin")
	}
	if p := good.gridPool(physics.Stress{PECycles: 99999, EffRetentionHours: 1e9}); p != good.Pools[len(good.Pools)-1] {
		t.Fatal("huge stress did not clamp to the last grid point")
	}
	if p := good.gridPool(physics.Stress{PECycles: 2100, EffRetentionHours: 250}); p != good.Pools[1*4+1] {
		t.Fatal("mid stress did not floor to (2000, 200)")
	}
}

func TestLifetimeConfigValidate(t *testing.T) {
	for _, bad := range []LifetimeConfig{
		{BasePE: -1},
		{BaseRetentionHours: -3},
		{Schedule: physics.TempSchedule{BaseC: -200}},
		{HoursPerSecond: -2},
		{CalibPeriodHours: 24}, // scheduled but free
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("config %+v accepted", bad)
		}
	}
	if err := (LifetimeConfig{}).Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	if err := lifeConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

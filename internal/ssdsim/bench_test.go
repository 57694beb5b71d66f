package ssdsim

import (
	"testing"

	"sentinel3d/internal/ecc"
	"sentinel3d/internal/flash"
	"sentinel3d/internal/ftl"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/obs"
	"sentinel3d/internal/physics"
	"sentinel3d/internal/retry"
	"sentinel3d/internal/trace"
)

// BenchmarkBuildSampler drives the whole read stack end to end — retry
// controller, page reads, error counting, ECC decisions — on an aged
// chip; the per-op cost tracks the fused read kernel's steady-state
// performance at the system level.
func BenchmarkBuildSampler(b *testing.B) {
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
		b.Fatal(err)
	}
	pol := retry.NewDefaultTable(chip, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildSampler(ctl, pol, 0, []int{0, 1, 2, 3}, 2, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGeometry is an 8-channel device so the replay benchmarks can
// shard up to 8 ways; it matches the tracesim/Fig14 device scaled 2x in
// channel count.
func benchGeometry() ftl.Geometry {
	return ftl.Geometry{
		Channels: 8, ChipsPerChan: 1, DiesPerChip: 2, PlanesPerDie: 2,
		BlocksPerPlane: 32, PagesPerBlock: 192,
	}
}

// benchSampler is a synthetic retry-outcome distribution (built once,
// shared read-only) so the replay benchmarks exercise the sampler RNG
// path without the cost of measuring a chip.
func benchSampler() *EmpiricalSampler {
	return &EmpiricalSampler{PerPage: [][]RetryOutcome{
		{{Retries: 0}, {Retries: 0}, {Retries: 1}},
		{{Retries: 0}, {Retries: 1}, {Retries: 2}},
		{{Retries: 1}, {Retries: 2}, {Retries: 4, AuxSenses: 1}},
	}}
}

func benchSpec(geo ftl.Geometry) trace.WorkloadSpec {
	spec, _ := trace.WorkloadByName("hm_0")
	spec.WorkingSetPages = int64(geo.PagesTotal()) * 6 / 10
	return spec
}

const benchRequests = 200_000

// BenchmarkReplaySequential is the legacy single-instance replay path:
// materialize the whole trace, precondition, then run the strictly
// sequential loop with full latency collection and an end-of-run sort.
func BenchmarkReplaySequential(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Geo = benchGeometry()
	spec := benchSpec(cfg.Geo)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqs, err := trace.Generate(spec, benchRequests, 7)
		if err != nil {
			b.Fatal(err)
		}
		sim, err := newSim(cfg, benchSampler())
		if err != nil {
			b.Fatal(err)
		}
		if err := sim.precondition(reqs); err != nil {
			b.Fatal(err)
		}
		rep, err := sim.run(reqs)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Requests)*float64(b.N)/b.Elapsed().Seconds(), "req/s")
	}
}

// benchReplayShards measures the streaming engine end to end (two
// passes over the generator: precondition + replay) in the default
// histogram mode or, with collect, the exact-percentile mode that keeps
// every read latency; optionally with a full observability registry
// attached (metrics, slow-read trace) but no scraper, and optionally
// with dynamic per-block aging enabled.
func benchReplayShards(b *testing.B, shards int, collect, withMetrics, withLife bool) {
	cfg := DefaultConfig()
	cfg.Geo = benchGeometry()
	var sampler RetrySampler = benchSampler()
	if withLife {
		// The 200k-request trace spans ~292 trace-seconds; 30 h/s
		// time-lapses that into ~1.2 years of device life, climbing the
		// retention grid, with weekly background calibrations (~50 per
		// die over the replay).
		cfg.Life = &LifetimeConfig{
			BasePE:             2000,
			BaseRetentionHours: 100,
			Schedule:           physics.SquareWave(25, 55, 24, 0.5),
			HoursPerSecond:     30,
			CalibPeriodHours:   168,
			CalibUS:            300,
		}
		sampler = SyntheticLifetimeSampler(cfg.Bits,
			[]int{0, 2000, 5000}, []float64{0, 200, 2000, 8760}, 0x5eed)
	}
	spec := benchSpec(cfg.Geo)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var reg *obs.Registry
		if withMetrics {
			reg = obs.NewRegistry(shards)
			reg.KeepSlowest(32)
		}
		eng, err := NewEngine(ReplayConfig{
			Sim: cfg, Shards: shards, CollectLatencies: collect,
			Precondition: true, Metrics: reg,
		}, sampler)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := eng.Replay(trace.GeneratorOpener(spec, benchRequests, 7))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Requests)*float64(b.N)/b.Elapsed().Seconds(), "req/s")
	}
}

// BenchmarkReplayShard1 is the engine's single-shard streaming path —
// the like-for-like successor of BenchmarkReplaySequential.
func BenchmarkReplayShard1(b *testing.B) { benchReplayShards(b, 1, false, false, false) }

// BenchmarkReplayShard8 shards the 8-channel device fully; with N CPUs
// the shards replay on min(8, N) workers.
func BenchmarkReplayShard8(b *testing.B) { benchReplayShards(b, 8, false, false, false) }

// BenchmarkReplayShard8Collect is BenchmarkReplayShard8 in the
// exact-percentile mode (CollectLatencies): every read latency is kept,
// the mode the Fig 14, adaptive and lifetime replays run in.
func BenchmarkReplayShard8Collect(b *testing.B) { benchReplayShards(b, 8, true, false, false) }

// BenchmarkReplayShard8Metrics is BenchmarkReplayShard8 with the
// observability registry enabled but idle (no scraper): its req/s is
// gated in CI against the uninstrumented baseline to hold the metrics
// overhead under 1%.
func BenchmarkReplayShard8Metrics(b *testing.B) { benchReplayShards(b, 8, false, true, false) }

// BenchmarkReplayShard8Lifetime is BenchmarkReplayShard8 with dynamic
// per-block aging enabled: the retention clock, per-block stress
// lookups, grid-sampler dispatch and the calibration scheduler all run
// on the hot path. Its req/s is gated in CI against the frozen-stress
// baseline to hold the lifetime bookkeeping overhead under 5%.
func BenchmarkReplayShard8Lifetime(b *testing.B) { benchReplayShards(b, 8, false, false, true) }

// fleetBenchRequests sizes the fleet benchmark at 5x the single-device
// replay benches: the fleet path amortizes per-replay construction
// (FTLs, freelist) over the stream, and a 1M-request trace keeps that
// amortization honest while still completing in well under a second.
const fleetBenchRequests = 1_000_000

// BenchmarkReplayFleetD4S8 is the fleet replay headline: a 4-device
// RAID-0 striped fleet, 8 shards per device, replaying a 1M-request
// trace pre-encoded into the zero-copy binary format (the encode cost
// is paid once, outside the timer — the realistic setup for repeated
// replays of a converted trace). Both passes (precondition + replay)
// decode straight from the byte buffer; the req/s metric is gated in CI
// at >= 10x the PR4 ReplayShard8 baseline.
func BenchmarkReplayFleetD4S8(b *testing.B) { benchReplayBinary(b, fleetBenchRequests, 4, 8) }

// BenchmarkReplayBinaryShard1 is the generator-free single-device
// replay: BenchmarkReplayShard1's trace and device, pre-encoded to the
// binary format outside the timer, so its req/s measures the engine and
// the Sim page path rather than the synthetic generator.
func BenchmarkReplayBinaryShard1(b *testing.B) { benchReplayBinary(b, benchRequests, 1, 1) }

// benchReplayBinary replays n generated requests, encoded once into the
// zero-copy binary format outside the timer, over a fleet of devices x
// shards; both passes (precondition + replay) decode straight from the
// byte buffer.
func benchReplayBinary(b *testing.B, n, devices, shards int) {
	cfg := DefaultConfig()
	cfg.Geo = benchGeometry()
	spec := benchSpec(cfg.Geo)
	gen, err := trace.NewGenerator(spec, n, 7)
	if err != nil {
		b.Fatal(err)
	}
	data, err := trace.EncodeBinarySource(gen)
	if err != nil {
		b.Fatal(err)
	}
	open, err := trace.BinaryOpener(data)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := NewEngine(ReplayConfig{
			Sim: cfg, Shards: shards, Devices: devices, Precondition: true,
		}, benchSampler())
		if err != nil {
			b.Fatal(err)
		}
		rep, err := eng.Replay(open)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Requests != n {
			b.Fatalf("replayed %d requests, want %d", rep.Requests, n)
		}
		b.ReportMetric(float64(rep.Requests)*float64(b.N)/b.Elapsed().Seconds(), "req/s")
	}
}

// BenchmarkPrecondition measures the LPN-dedup warm-up pass on its own:
// it dominates set-up time for large traces and its allocation count is
// the target of the sorted-slice dedup.
func BenchmarkPrecondition(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Geo = benchGeometry()
	spec := benchSpec(cfg.Geo)
	reqs, err := trace.Generate(spec, benchRequests, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := newSim(cfg, benchSampler())
		if err != nil {
			b.Fatal(err)
		}
		if err := sim.precondition(reqs); err != nil {
			b.Fatal(err)
		}
	}
}

package ssdsim

import (
	"sync"
	"testing"

	"sentinel3d/internal/ecc"
	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/physics"
	"sentinel3d/internal/retry"
	"sentinel3d/internal/sentinel"
	"sentinel3d/internal/trace"
)

// Policy replay benchmarks: sentinel vs the sentinel-started history
// policy (retry.WarmStartPolicy in Table mode), with retry pools
// measured on a real aged chip (not the synthetic benchSampler) and
// replayed over a saturated all-at-t0 burst so the simulated makespan
// is pure service capacity. The sim-req/s metric is
// fully deterministic — seeded pools, seeded trace, seeded sim — and CI
// gates ReplayHistoryPolicy/ReplaySentinelPolicy:sim-req/s >= 1.05: the
// warm-started first-shot reads must keep buying at least 5%
// simulated device throughput over plain sentinel.

// policyBench holds the measured pools; building them trains a sentinel
// model and samples the chip, so it runs once per process.
var policyBench struct {
	once     sync.Once
	err      error
	sentinel *EmpiricalSampler
	history  *EmpiricalSampler
}

func policyBenchSamplers() (sentinelPool, historyPool *EmpiricalSampler, err error) {
	pb := &policyBench
	pb.once.Do(func() {
		mkCfg := func(seed uint64) flash.Config {
			return flash.Config{
				Kind: flash.TLC, Layers: 16, WordlinesPerLayer: 2,
				CellsPerWordline: 16384, OOBFraction: 0.119, Seed: seed, CacheZ: true,
			}
		}
		layout := sentinel.Layout{Ratio: 0.02, Placement: sentinel.TailOOB}
		trainChip, err := flash.New(mkCfg(114))
		if err != nil {
			pb.err = err
			return
		}
		model, err := sentinel.Train(trainChip, sentinel.TrainConfig{
			Points: []sentinel.StressPoint{
				{PECycles: 0, Hours: 24, TempC: physics.RoomTempC},
				{PECycles: 1000, Hours: 2000, TempC: physics.RoomTempC},
				{PECycles: 3000, Hours: 2880, TempC: physics.RoomTempC},
				{PECycles: 5000, Hours: 720, TempC: physics.RoomTempC},
				{PECycles: 5000, Hours: 4380, TempC: physics.RoomTempC},
				{PECycles: 5000, Hours: physics.YearHours, TempC: physics.RoomTempC},
			},
			WordlinesPerPoint: 8, Layout: layout, Seed: mathx.Mix(114, 0x7ea1),
		})
		if err != nil {
			pb.err = err
			return
		}
		cfg := mkCfg(214)
		eng, err := sentinel.NewEngine(model, layout, sentinel.DefaultCalibrator(), cfg)
		if err != nil {
			pb.err = err
			return
		}
		chip, err := flash.New(cfg)
		if err != nil {
			pb.err = err
			return
		}
		nStates := chip.Coding().States()
		for wl := 0; wl < cfg.WordlinesPerBlock(); wl++ {
			rng := mathx.NewRand(mathx.Mix3(214, 0xda7c, uint64(wl)))
			states := make([]uint8, cfg.CellsPerWordline)
			for i := range states {
				states[i] = uint8(rng.Intn(nStates))
			}
			eng.Prepare(states)
			if err := chip.ProgramStates(wl, states); err != nil {
				pb.err = err
				return
			}
		}
		chip.Cycle(5000)
		chip.Age(physics.YearHours, physics.RoomTempC)
		ctl, err := retry.NewController(chip,
			ecc.CapabilityModel{FrameBits: 8192, T: 26}, 15)
		if err != nil {
			pb.err = err
			return
		}
		var wls []int
		for wl := 0; wl < cfg.WordlinesPerBlock(); wl += 2 {
			wls = append(wls, wl)
		}
		pb.sentinel, pb.err = BuildSampler(ctl, retry.NewSentinelPolicy(eng), 0, wls, 3, 0xb51)
		if pb.err != nil {
			return
		}
		hist := &retry.WarmStartPolicy{Table: retry.NewDefaultTable(chip, 1.2)}
		if ofs, ok := retry.SentinelStart(chip, eng, wls[0], 0x9157); ok {
			hist.Start = ofs
		}
		pb.history, pb.err = BuildSampler(ctl, hist, 0, wls, 3, 0xb52)
	})
	return pb.sentinel, pb.history, pb.err
}

const policyBenchRequests = 20_000

// benchPolicyReplay replays the saturated burst under one pool and
// reports the simulated device throughput alongside wall-clock numbers.
func benchPolicyReplay(b *testing.B, pool *EmpiricalSampler) {
	cfg := DefaultConfig()
	cfg.Geo = benchGeometry()
	spec := benchSpec(cfg.Geo)
	reqs, err := trace.Generate(spec, policyBenchRequests, 7)
	if err != nil {
		b.Fatal(err)
	}
	for i := range reqs {
		reqs[i].ArriveUS = 0
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := newSim(cfg, pool)
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
		if mk := sim.makespan(); mk > 0 {
			b.ReportMetric(float64(rep.Requests)/(mk*1e-6), "sim-req/s")
		}
	}
}

// BenchmarkReplaySentinelPolicy is the plain-sentinel baseline.
func BenchmarkReplaySentinelPolicy(b *testing.B) {
	sent, _, err := policyBenchSamplers()
	if err != nil {
		b.Fatal(err)
	}
	benchPolicyReplay(b, sent)
}

// BenchmarkReplayHistoryPolicy replays under the warm-start history
// pool; its sim-req/s is gated against the sentinel baseline.
func BenchmarkReplayHistoryPolicy(b *testing.B) {
	_, hist, err := policyBenchSamplers()
	if err != nil {
		b.Fatal(err)
	}
	benchPolicyReplay(b, hist)
}

package experiments

import (
	"fmt"

	"sentinel3d/internal/flash"
	"sentinel3d/internal/ftl"
	"sentinel3d/internal/obs"
	"sentinel3d/internal/retry"
	"sentinel3d/internal/sentinel"
	"sentinel3d/internal/ssdsim"
	"sentinel3d/internal/trace"
)

// Testbed is the aged-chip stack every chip-backed retry experiment and
// replay cell measures on: a sentinel engine over a model trained on a
// separate chip of the same batch, an evaluation chip programmed with
// the sentinel pattern and aged to one stress point, and a retry
// controller over it. Policy turns a catalogue name into a read policy
// on the stack.
type Testbed struct {
	Cfg  flash.Config
	Eng  *sentinel.Engine
	Chip *flash.Chip
	Ctl  *retry.Controller
}

// Testbed trains (or reuses) the model of kind on chip trainSeed, then
// builds the evaluation chip chipSeed aged to (pe, hours at room
// temperature) and its controller with the scale's retry budget.
func (s Scale) Testbed(kind flash.Kind, trainSeed, chipSeed uint64, pe int, hours float64) (*Testbed, error) {
	model, err := s.TrainModel(kind, trainSeed)
	if err != nil {
		return nil, err
	}
	cfg := s.ChipConfig(kind, chipSeed)
	eng, err := s.Engine(model, cfg)
	if err != nil {
		return nil, err
	}
	chip, err := s.BuildEvalChip(kind, chipSeed, eng, pe, hours)
	if err != nil {
		return nil, err
	}
	ctl, err := s.Controller(chip, s.MaxRetries)
	if err != nil {
		return nil, err
	}
	return &Testbed{Cfg: cfg, Eng: eng, Chip: chip, Ctl: ctl}, nil
}

// PolicyNames is the read-policy catalogue Testbed.Policy builds from,
// in canonical order.
var PolicyNames = []string{"table", "sentinel", "fallback", "history", "ar2", "sentinel+history"}

// Policy builds the named read policy on the testbed's chip:
//
//   - "table": the static vendor retry table;
//   - "sentinel": the paper's sentinel inference and calibration;
//   - "fallback": sentinel guarded by the static table, with block 0
//     probed for sentinel corruption up front;
//   - "history": first shot at block 0's start offsets, table walk
//     relative to them beyond it;
//   - "ar2": the table walk with pipelined retry steps;
//   - "sentinel+history": first shot at block 0's start offsets,
//     sentinel recovery.
//
// Both history policies start block 0 at offsets inferred once from a
// sentinel sense of its wordline 0 (retry.SentinelStart); nothing writes
// them afterwards, so reads are a pure function of their seeds at any
// worker count.
func (tb *Testbed) Policy(name string) (retry.Policy, error) {
	table := retry.NewDefaultTable(tb.Chip, tableStep)
	sent := retry.NewSentinelPolicy(tb.Eng)
	switch name {
	case "table":
		return table, nil
	case "sentinel":
		return sent, nil
	case "fallback":
		fb := retry.NewFallback(sent, table)
		fb.ProbeBlock(tb.Chip, 0, 0)
		return fb, nil
	case "ar2":
		return retry.NewAR2(table), nil
	case "history", "sentinel+history":
		pol := &retry.WarmStartPolicy{}
		if ofs, ok := retry.SentinelStart(tb.Chip, tb.Eng, 0, 0, 0x9157); ok {
			pol.Start = map[int]flash.Offsets{0: ofs}
		}
		if name == "history" {
			pol.Table = table
		} else {
			pol.Sentinel = sent
		}
		return pol, nil
	}
	return nil, fmt.Errorf("experiments: unknown read policy %q", name)
}

// Sampler measures the named policy's retry-outcome pool on the
// testbed: every page of wordlines wls of block 0 is read three times,
// drawing from seed. Every trace experiment and chip-backed replay cell
// builds its pools here, each with its own wordlines and seeds.
func (tb *Testbed) Sampler(policy string, wls []int, seed uint64) (*ssdsim.EmpiricalSampler, error) {
	pol, err := tb.Policy(policy)
	if err != nil {
		return nil, err
	}
	return ssdsim.BuildSampler(tb.Ctl, pol, 0, wls, 3, seed)
}

// spreadWLs returns 16 wordlines spread evenly over the block (every
// wordline on blocks shorter than that): the sample the trace
// experiments build their retry-outcome pools over.
func (tb *Testbed) spreadWLs() []int {
	nwl := tb.Cfg.WordlinesPerBlock()
	step := max(nwl/16, 1)
	var wls []int
	for wl := 0; wl < nwl; wl += step {
		wls = append(wls, wl)
	}
	return wls
}

// TraceDevice is the 4-channel device the trace experiments, the
// scenario replay cells and the serving cell replay against.
func TraceDevice() ssdsim.Config {
	cfg := ssdsim.DefaultConfig()
	cfg.Geo = ftl.Geometry{
		Channels: 4, ChipsPerChan: 1, DiesPerChip: 2, PlanesPerDie: 2,
		BlocksPerPlane: 32, PagesPerBlock: 192,
	}
	return cfg
}

// paperWorkload sizes an MSR-like workload for TraceDevice: the
// footprint is 60% of the device's pages and arrivals are slowed 6x.
// The MSR volumes are light relative to an SSD's capability (the
// paper's SSDSim runs show latency ratios near the device-level retry
// ratio, i.e. negligible queueing); the slower arrivals keep it so.
func paperWorkload(spec trace.WorkloadSpec) trace.WorkloadSpec {
	spec.WorkingSetPages = int64(TraceDevice().Geo.PagesTotal()) * 6 / 10
	spec.MeanIATUS *= 6
	return spec
}

// replayTrace replays a trace on one preconditioned single-shard device
// with exact latency collection, instrumented into reg when non-nil.
func replayTrace(cfg ssdsim.Config, sampler ssdsim.RetrySampler, open trace.Opener, reg *obs.Registry) (*ssdsim.Report, error) {
	eng, err := ssdsim.NewEngine(ssdsim.ReplayConfig{
		Sim: cfg, Shards: 1, CollectLatencies: true, Precondition: true,
		Metrics: reg,
	}, sampler)
	if err != nil {
		return nil, err
	}
	return eng.Replay(open)
}

// SyntheticSampler is a synthetic TLC retry-outcome distribution that
// exercises the sampler RNG path without building a chip. The scenario
// registry's "synthetic"-policy replay cells use it (fast enough for CI
// smoke tiers), and it matches the ssdsim replay benchmarks' sampler.
func SyntheticSampler() *ssdsim.EmpiricalSampler {
	return &ssdsim.EmpiricalSampler{PerPage: [][]ssdsim.RetryOutcome{
		{{Retries: 0}, {Retries: 0}, {Retries: 1}},
		{{Retries: 0}, {Retries: 1}, {Retries: 2}},
		{{Retries: 1}, {Retries: 2}, {Retries: 4, AuxSenses: 1}},
	}}
}

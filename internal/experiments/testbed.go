package experiments

import (
	"fmt"

	"sentinel3d/internal/flash"
	"sentinel3d/internal/ftl"
	"sentinel3d/internal/retry"
	"sentinel3d/internal/sentinel"
	"sentinel3d/internal/ssdsim"
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

	tableStep float64
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
	return &Testbed{Cfg: cfg, Eng: eng, Chip: chip, Ctl: ctl, tableStep: s.TableStep}, nil
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
//   - "history": first shot from the offset-history cache, table walk
//     beyond it;
//   - "ar2": the table walk with pipelined retry steps;
//   - "sentinel+history": cache-seeded first shot, sentinel recovery.
//
// Each history policy gets its own cache, warmed from sentinel inference
// on wordline 0 of block 0 and then frozen (no write-back), so reads
// through it are a pure function of their seeds at any worker count.
func (tb *Testbed) Policy(name string) (retry.Policy, error) {
	table := retry.NewDefaultTable(tb.Chip, tb.tableStep)
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
		cache, err := retry.NewHistCache(4, 64<<10, tb.Chip.Coding().NumVoltages(), tb.Eng.OffsetBound())
		if err != nil {
			return nil, err
		}
		retry.WarmHistCache(cache, tb.Chip, tb.Eng, []int{0}, 0, 0x9157)
		if name == "history" {
			return retry.NewHistoryPolicy(cache, table, false), nil
		}
		return retry.NewSentinelHistory(cache, sent, false), nil
	}
	return nil, fmt.Errorf("experiments: unknown read policy %q", name)
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

// Package experiments reproduces every table and figure of the paper's
// characterization and evaluation sections on the simulated chips. Each
// experiment is a function taking a Scale (Quick for tests, Full for the
// benchmark harness) and returning a typed result with a text rendering.
//
// The per-experiment index lives in DESIGN.md; measured-vs-paper numbers
// are recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"strings"
	"sync"

	"sentinel3d/internal/ecc"
	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/obs"
	"sentinel3d/internal/parallel"
	"sentinel3d/internal/physics"
	"sentinel3d/internal/retry"
	"sentinel3d/internal/sentinel"
)

// tableStep is the per-entry step of the vendor retry table baseline.
const tableStep float64 = 1.2

// Scale selects the fidelity/runtime trade-off of an experiment.
type Scale struct {
	// Name labels the scale in reports.
	Name string
	// Cells is the wordline width in cells. Full scale uses the physical
	// 147456 (18592-byte pages, paper Section III-D); Quick shrinks it.
	Cells int
	// Layers and WLsPerLayer set the block geometry.
	Layers      int
	WLsPerLayer int
	// SentinelRatio keeps the *absolute* sentinel count near the paper's
	// ~295 per wordline: 0.2% at full width, proportionally more at
	// reduced widths.
	SentinelRatio float64
	// TrainWLs and TrainPoints bound the trainer's work.
	TrainWLs    int
	TrainPoints int
	// CacheZ is flash.Config.CacheZ: the scales differ in z's precision.
	// Full scale hashes z, as a full-width cache costs ~151 MB per chip.
	CacheZ bool
	// TLCCapT / QLCCapT are the ECC capability thresholds (bit errors per
	// 8192-bit frame) used by the retry experiments.
	TLCCapT int
	QLCCapT int
	// MaxRetries is the controller's retry budget (vendor tables hold
	// 15-50 entries).
	MaxRetries int
	// Obs, when non-nil, instruments every controller, sentinel engine
	// and trace replay the experiments build. Experiments fan out across
	// workers, so several instances may share the registry's cells; the
	// cells are atomic and commutative, keeping the totals exact (and
	// deterministic) even then.
	Obs *obs.Registry
}

// Quick returns the reduced scale used by unit tests: 16k-cell wordlines
// with a sentinel count matching the paper's (~330).
func Quick() Scale {
	return Scale{
		Name:          "quick",
		Cells:         16384,
		Layers:        16,
		WLsPerLayer:   2,
		SentinelRatio: 0.02,
		TrainWLs:      12,
		TrainPoints:   12,
		CacheZ:        true,
		TLCCapT:       26,
		QLCCapT:       60,
		MaxRetries:    15,
	}
}

// Full returns the paper-fidelity scale: physical wordline width and the
// 0.2% sentinel ratio.
func Full() Scale {
	return Scale{
		Name:          "full",
		Cells:         147456,
		Layers:        64,
		WLsPerLayer:   4,
		SentinelRatio: 0.002,
		TrainWLs:      24,
		TrainPoints:   24,
		CacheZ:        false,
		// Full pages hold ~18 ECC frames and a page decodes only when
		// every frame does, so the per-frame capability is sized a little
		// above the quick scale's 2-frame pages.
		TLCCapT:    32,
		QLCCapT:    70,
		MaxRetries: 15,
	}
}

// ChipConfig builds the flash configuration for a kind under this scale.
func (s Scale) ChipConfig(kind flash.Kind, seed uint64) flash.Config {
	return flash.Config{
		Kind:              kind,
		Layers:            s.Layers,
		WordlinesPerLayer: s.WLsPerLayer,
		CellsPerWordline:  s.Cells,
		Seed:              seed,
		CacheZ:            s.CacheZ,
	}
}

// Layout returns the sentinel layout for this scale.
func (s Scale) Layout() sentinel.Layout {
	return sentinel.Layout{Ratio: s.SentinelRatio, Placement: sentinel.TailOOB}
}

// CapModel returns the ECC capability model for a kind at this scale.
func (s Scale) CapModel(kind flash.Kind) ecc.CapabilityModel {
	t := s.TLCCapT
	if kind == flash.QLC {
		t = s.QLCCapT
	}
	return ecc.CapabilityModel{FrameBits: 8192, T: t}
}

// trainPoints builds the trainer stress grid for the scale.
func (s Scale) trainPoints() []sentinel.StressPoint {
	all := []sentinel.StressPoint{
		{PECycles: 0, Hours: 24, TempC: physics.RoomTempC},
		{PECycles: 0, Hours: 720, TempC: physics.RoomTempC},
		{PECycles: 1000, Hours: 168, TempC: physics.RoomTempC},
		{PECycles: 1000, Hours: 2000, TempC: physics.RoomTempC},
		{PECycles: 1000, Hours: physics.YearHours, TempC: physics.RoomTempC},
		{PECycles: 2000, Hours: 720, TempC: physics.RoomTempC},
		{PECycles: 3000, Hours: 2880, TempC: physics.RoomTempC},
		{PECycles: 3000, Hours: physics.YearHours, TempC: physics.RoomTempC},
		{PECycles: 4000, Hours: 4380, TempC: physics.RoomTempC},
		{PECycles: 5000, Hours: 720, TempC: physics.RoomTempC},
		{PECycles: 5000, Hours: 4380, TempC: physics.RoomTempC},
		{PECycles: 5000, Hours: physics.YearHours, TempC: physics.RoomTempC},
	}
	if s.TrainPoints >= len(all) {
		return all
	}
	out := make([]sentinel.StressPoint, 0, s.TrainPoints)
	for i := 0; i < s.TrainPoints; i++ {
		out = append(out, all[i*len(all)/s.TrainPoints])
	}
	return out
}

// trainConfig is the trainer setup of a training chip seeded trainSeed.
func (s Scale) trainConfig(trainSeed uint64) sentinel.TrainConfig {
	return sentinel.TrainConfig{
		Points:            s.trainPoints(),
		WordlinesPerPoint: s.TrainWLs,
		Layout:            s.Layout(),
		Seed:              mathx.Mix(trainSeed, 0x7ea1),
	}
}

// modelCache memoizes trained models: training is deterministic in
// (scale, kind, seed) and by far the most expensive setup step shared by
// the experiments.
var modelCache sync.Map // string -> *sentinel.Model

// TrainModel characterizes a training chip of the given kind (a separate
// chip instance "of the same batch", seed trainSeed) and fits the
// inference model — the paper's manufacturing-time step. Results are
// memoized per (scale, kind, seed).
func (s Scale) TrainModel(kind flash.Kind, trainSeed uint64) (*sentinel.Model, error) {
	key := fmt.Sprintf("%s/%v/%d/%d/%d/%v", s.Name, kind, trainSeed,
		s.Cells, s.TrainWLs, s.SentinelRatio)
	if m, ok := modelCache.Load(key); ok {
		return m.(*sentinel.Model), nil
	}
	chip, err := flash.New(s.ChipConfig(kind, trainSeed))
	if err != nil {
		return nil, err
	}
	m, err := sentinel.Train(chip, s.trainConfig(trainSeed))
	if err != nil {
		return nil, err
	}
	modelCache.Store(key, m)
	return m, nil
}

// BuildEvalChip creates an evaluation chip with every wordline programmed
// (random data plus the sentinel pattern) and aged to (pe, hours at room
// temperature). Wordlines are programmed concurrently, each from its own
// RNG stream split from the chip seed and keyed by wordline index, so the
// programmed data is identical at any worker count.
func (s Scale) BuildEvalChip(kind flash.Kind, seed uint64, eng *sentinel.Engine, pe int, hours float64) (*flash.Chip, error) {
	cfg := s.ChipConfig(kind, seed)
	chip, err := flash.New(cfg)
	if err != nil {
		return nil, err
	}
	nStates := chip.Coding().States()
	err = parallel.ForEachErr(cfg.WordlinesPerBlock(), func(wl int) error {
		rng := mathx.NewRand(mathx.Mix3(seed, 0xda7c, uint64(wl)))
		states := make([]uint8, cfg.CellsPerWordline)
		for i := range states {
			states[i] = uint8(rng.Intn(nStates))
		}
		if eng != nil {
			eng.Prepare(states)
		}
		return chip.ProgramStates(wl, states)
	})
	if err != nil {
		return nil, err
	}
	chip.Cycle(pe)
	chip.Age(hours, physics.RoomTempC)
	return chip, nil
}

// Engine builds a sentinel engine for the scale's layout against cfg,
// instrumented when the scale carries a registry.
func (s Scale) Engine(model *sentinel.Model, cfg flash.Config) (*sentinel.Engine, error) {
	eng, err := sentinel.NewEngine(model, s.Layout(), sentinel.DefaultCalibrator(), cfg)
	if err != nil {
		return nil, err
	}
	eng.Obs = sentinel.NewMetrics(s.obsSet())
	return eng, nil
}

// Controller builds a retry controller with the scale's ECC,
// instrumented when the scale carries a registry.
func (s Scale) Controller(chip *flash.Chip, maxRetries int) (*retry.Controller, error) {
	ctl, err := retry.NewController(chip, s.CapModel(chip.Config().Kind), maxRetries)
	if err != nil {
		return nil, err
	}
	ctl.Obs = retry.NewMetrics(s.obsSet(), tableStep)
	return ctl, nil
}

// obsSet returns shard 0 of the scale's registry (nil when
// uninstrumented). The chip-level experiments are not sharded the way
// the replay engine is, so they share the first shard's cells.
func (s Scale) obsSet() *obs.Set {
	return s.Obs.Set(0)
}

// ---------------------------------------------------------------------------
// Rendering helpers shared by the CLI tools.

// Table renders rows as an aligned text table.
func Table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range width {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// F formats a float for tables.
func F(v float64) string { return fmt.Sprintf("%.4g", v) }

// Pct formats a ratio as a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

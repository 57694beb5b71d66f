package ssdsim

import (
	"reflect"
	"testing"

	"sentinel3d/internal/ecc"
	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/physics"
	"sentinel3d/internal/retry"
	"sentinel3d/internal/sentinel"
)

// buildSamplerPerRead is BuildSampler with every read on a handle of
// its own (Controller.Read): the reference for BuildSampler's one
// handle per wordline.
func buildSamplerPerRead(ctl *retry.Controller, pol retry.Policy, wls []int, reps int, seed uint64) (*EmpiricalSampler, error) {
	bits := ctl.Chip.Coding().Bits()
	out := &EmpiricalSampler{PerPage: make([][]RetryOutcome, bits)}
	for _, wl := range wls {
		for p := 0; p < bits; p++ {
			for rep := 0; rep < reps; rep++ {
				res := ctl.Read(wl, p, pol, mathx.Mix4(seed, uint64(wl), uint64(p), uint64(rep)))
				if res.Err != nil {
					return nil, res.Err
				}
				out.PerPage[p] = append(out.PerPage[p], RetryOutcome{
					Retries:       res.Retries,
					AuxSenses:     res.AuxSenses,
					UsedFallback:  res.UsedFallback,
					Uncorrectable: res.Uncorrectable,
					Offsets:       append([]float64(nil), res.FinalOffsets...),
				})
			}
		}
	}
	return out, nil
}

// TestBuildSamplerSharedHandleMatchesPerRead: BuildSampler reads every
// page of a wordline through one handle, redrawn for each read; the
// pools must be exactly those of a handle per read — every field of
// every outcome, Offsets included — for each policy kind: sentinel
// inference, the vendor table, the sentinel-to-table fallback, AR²'s
// pipelined table walk and the warm-started history policy (in both of
// its modes).
func TestBuildSamplerSharedHandleMatchesPerRead(t *testing.T) {
	mkCfg := func(seed uint64) flash.Config {
		return flash.Config{
			Kind: flash.TLC, Layers: 4, WordlinesPerLayer: 2,
			CellsPerWordline: 16384, OOBFraction: 0.119, Seed: seed, CacheZ: true,
		}
	}
	layout := sentinel.Layout{Ratio: 0.02, Placement: sentinel.TailOOB}
	model, err := sentinel.Train(flash.MustNew(mkCfg(7)), sentinel.TrainConfig{
		Points: []sentinel.StressPoint{
			{PECycles: 0, Hours: 24, TempC: physics.RoomTempC},
			{PECycles: 1000, Hours: 2000, TempC: physics.RoomTempC},
			{PECycles: 3000, Hours: 2880, TempC: physics.RoomTempC},
			{PECycles: 5000, Hours: physics.YearHours, TempC: physics.RoomTempC},
		},
		WordlinesPerPoint: 6, Layout: layout, Seed: 0x5a3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := mkCfg(8)
	eng, err := sentinel.NewEngine(model, layout, sentinel.DefaultCalibrator(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	chip := flash.MustNew(cfg)
	rng := mathx.NewRand(8)
	states := make([]uint8, cfg.CellsPerWordline)
	for wl := 0; wl < cfg.WordlinesPerBlock(); wl++ {
		for i := range states {
			states[i] = uint8(rng.Intn(chip.Coding().States()))
		}
		eng.Prepare(states)
		if err := chip.ProgramStates(wl, states); err != nil {
			t.Fatal(err)
		}
	}
	chip.Cycle(5000)
	chip.Age(physics.YearHours, physics.RoomTempC)
	ctl, err := retry.NewController(chip, ecc.CapabilityModel{FrameBits: 8192, T: 26}, 15)
	if err != nil {
		t.Fatal(err)
	}
	wls := []int{0, 3, 5, 6}
	sent := retry.NewSentinelPolicy(eng)
	table := retry.NewDefaultTable(chip, 1.2)
	start, ok := retry.SentinelStart(chip, eng, wls[0], 0x9157)
	if !ok {
		t.Fatal("no sentinel start offsets")
	}
	retries, aux := 0, 0
	for _, c := range []struct {
		name string
		pol  retry.Policy
	}{
		{"sentinel", sent},
		{"table", table},
		{"fallback", retry.NewFallback(sent, table)},
		{"ar2", retry.NewAR2(table)},
		{"warm-sentinel", &retry.WarmStartPolicy{Start: start, Sentinel: sent}},
		{"warm-table", &retry.WarmStartPolicy{Start: start, Table: table}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, err := BuildSampler(ctl, c.pol, 0, wls, 3, 0x5eed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := buildSamplerPerRead(ctl, c.pol, wls, 3, 0x5eed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				for p := range want.PerPage {
					for i := range want.PerPage[p] {
						if g, w := got.PerPage[p][i], want.PerPage[p][i]; !reflect.DeepEqual(g, w) {
							t.Fatalf("page %d outcome %d: shared handle %+v, per read %+v", p, i, g, w)
						}
					}
				}
				t.Fatalf("pools differ: %+v vs %+v", got, want)
			}
			for _, pool := range got.PerPage {
				for _, o := range pool {
					retries += o.Retries
					aux += o.AuxSenses
				}
			}
		})
	}
	// The comparison means something only if reads redrew the shared
	// handle: retried, and sensed the sentinel voltage.
	if retries == 0 || aux == 0 {
		t.Fatalf("%d retries and %d auxiliary senses in all pools", retries, aux)
	}
}

package retry

import (
	"errors"
	"sync"
	"testing"

	"sentinel3d/internal/ecc"
	"sentinel3d/internal/fault"
	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
)

func TestReadReportsBadAddress(t *testing.T) {
	chip := flash.MustNew(testCfg(flash.TLC))
	ctl, err := NewController(chip, ecc.CapabilityModel{FrameBits: 8192, T: 30}, 5)
	if err != nil {
		t.Fatal(err)
	}
	table := NewDefaultTable(chip, 2)
	cases := [][2]int{
		{-1, 0}, {chip.Config().WordlinesPerBlock(), 0},
		{0, -1}, {0, 3}, // TLC has pages 0..2
	}
	for _, c := range cases {
		res := ctl.Read(c[0], c[1], table, 1)
		if res.OK || !errors.Is(res.Err, ErrBadAddress) {
			t.Fatalf("Read(%v): ok=%v err=%v, want ErrBadAddress", c, res.OK, res.Err)
		}
		if res.Retries != 0 || res.Latency != 0 {
			t.Fatalf("Read(%v) did chip work despite bad address: %+v", c, res)
		}
	}
}

func TestReadReportsUnprogrammed(t *testing.T) {
	chip := flash.MustNew(testCfg(flash.TLC))
	ctl, err := NewController(chip, ecc.CapabilityModel{FrameBits: 8192, T: 30}, 5)
	if err != nil {
		t.Fatal(err)
	}
	table := NewDefaultTable(chip, 2)
	res := ctl.Read(0, 0, table, 1)
	if res.OK || !errors.Is(res.Err, ErrNotProgrammed) {
		t.Fatalf("ok=%v err=%v, want ErrNotProgrammed", res.OK, res.Err)
	}
}

func TestUncorrectableFlag(t *testing.T) {
	eng := testEngine(t)
	chip := agedTLCChip(t, eng)
	ctl, err := NewController(chip, ecc.CapabilityModel{FrameBits: 8192, T: 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	table := NewDefaultTable(chip, 2)
	res := ctl.Read(0, 2, table, 1)
	if res.OK || !res.Uncorrectable {
		t.Fatalf("T=0 read: ok=%v uncorrectable=%v, want failed+uncorrectable",
			res.OK, res.Uncorrectable)
	}
	ctl.ECC = ecc.CapabilityModel{FrameBits: 8192, T: 30}
	ctl.MaxRetries = 15
	res = ctl.Read(0, 2, table, 1)
	if !res.OK || res.Uncorrectable {
		t.Fatalf("healthy read: ok=%v uncorrectable=%v", res.OK, res.Uncorrectable)
	}
}

// stuckProfile returns a fault profile pinning frac of the sentinel-region
// cells high on every block of cfg.
func stuckProfile(cfg flash.Config, eng interface{ Indices() []int }, frac float64) fault.Profile {
	n := len(eng.Indices())
	return fault.Profile{
		Seed:              31,
		SentinelStuckRate: frac,
		SentinelRegion:    [2]int{cfg.CellsPerWordline - n, cfg.CellsPerWordline},
		StuckHighFraction: 1,
	}
}

func TestProbeBlockHealthyAndDegraded(t *testing.T) {
	eng := testEngine(t)
	chip := agedTLCChip(t, eng)
	table := NewDefaultTable(chip, 2)
	fb := NewFallback(NewSentinelPolicy(eng), table)

	if frac := fb.Probe(chip, 0); frac > stuckTolerance {
		t.Fatalf("healthy chip probed stuck fraction %v", frac)
	}
	if fb.Degraded() {
		t.Fatal("healthy block marked degraded")
	}

	chip.SetFaults(fault.MustNew(stuckProfile(chip.Config(), eng, 0.10)))
	frac := fb.Probe(chip, 0)
	if frac < 0.05 {
		t.Fatalf("10%% stuck cells probed as %v", frac)
	}
	if !fb.Degraded() {
		t.Fatal("corrupted block not marked degraded")
	}

	// Re-probing after the faults clear restores the block.
	chip.SetFaults(nil)
	fb.Probe(chip, 0)
	if fb.Degraded() {
		t.Fatal("block still degraded after faults cleared")
	}
}

// TestDegradedBlockMatchesTable is the heart of the graceful-degradation
// guarantee: on a degraded block the fallback session issues byte-for-byte
// the same attempt sequence as the pure table policy, so its retry count
// can never exceed the baseline's.
func TestDegradedBlockMatchesTable(t *testing.T) {
	eng := testEngine(t)
	chip := agedTLCChip(t, eng)
	chip.SetFaults(fault.MustNew(stuckProfile(chip.Config(), eng, 0.10)))
	table := NewDefaultTable(chip, 2)
	fb := NewFallback(NewSentinelPolicy(eng), table)
	fb.Probe(chip, 0)
	if !fb.Degraded() {
		t.Fatal("probe did not degrade the corrupted block")
	}
	ctl, err := NewController(chip, ecc.CapabilityModel{FrameBits: 8192, T: 28}, 15)
	if err != nil {
		t.Fatal(err)
	}
	for wl := 0; wl < chip.Config().WordlinesPerBlock(); wl++ {
		seed := mathx.Mix(7, uint64(wl))
		rT := ctl.Read(wl, 2, table, seed)
		rF := ctl.Read(wl, 2, fb, seed)
		if rF.Retries != rT.Retries || rF.OK != rT.OK {
			t.Fatalf("wl %d: fallback (retries=%d ok=%v) != table (retries=%d ok=%v)",
				wl, rF.Retries, rF.OK, rT.Retries, rT.OK)
		}
		if rF.Retries > 0 && !rF.UsedFallback {
			t.Fatalf("wl %d: degraded-block read did not report UsedFallback", wl)
		}
	}
}

// TestGuardTripsWithoutProbe corrupts the sentinels but skips the block
// probe: the per-read plausibility guard alone must abandon sentinel
// inference instead of letting a nonsense offset burn the budget.
func TestGuardTripsWithoutProbe(t *testing.T) {
	eng := testEngine(t)
	chip := agedTLCChip(t, eng)
	chip.SetFaults(fault.MustNew(stuckProfile(chip.Config(), eng, 0.30)))
	table := NewDefaultTable(chip, 2)
	bare := NewSentinelPolicy(eng)
	fb := NewFallback(bare, table)
	ctl, err := NewController(chip, ecc.CapabilityModel{FrameBits: 8192, T: 28}, 15)
	if err != nil {
		t.Fatal(err)
	}
	sawFallback := false
	var fbSum, bareSum int
	for wl := 0; wl < chip.Config().WordlinesPerBlock(); wl++ {
		seed := mathx.Mix(8, uint64(wl))
		rF := ctl.Read(wl, 2, fb, seed)
		rB := ctl.Read(wl, 2, bare, seed)
		fbSum += rF.Retries
		bareSum += rB.Retries
		if rF.UsedFallback {
			sawFallback = true
		}
		if rB.OK && !rF.OK {
			t.Fatalf("wl %d: fallback failed where bare sentinel succeeded", wl)
		}
	}
	if !sawFallback {
		t.Fatal("30% stuck-high sentinels never tripped the per-read guard")
	}
}

func TestFallbackHealthyStaysOnSentinel(t *testing.T) {
	eng := testEngine(t)
	chip := agedTLCChip(t, eng)
	table := NewDefaultTable(chip, 2)
	bare := NewSentinelPolicy(eng)
	fb := NewFallback(bare, table)
	fb.Probe(chip, 0)
	ctl, err := NewController(chip, ecc.CapabilityModel{FrameBits: 8192, T: 28}, 15)
	if err != nil {
		t.Fatal(err)
	}
	for wl := 0; wl < chip.Config().WordlinesPerBlock(); wl++ {
		seed := mathx.Mix(9, uint64(wl))
		rF := ctl.Read(wl, 2, fb, seed)
		rB := ctl.Read(wl, 2, bare, seed)
		if rF.UsedFallback {
			t.Fatalf("wl %d: healthy read degraded to the table", wl)
		}
		if rF.Retries != rB.Retries {
			t.Fatalf("wl %d: fallback retries %d != bare sentinel %d on a healthy chip",
				wl, rF.Retries, rB.Retries)
		}
	}
}

// TestConcurrentReadsMatchSerial locks in the documented Chip concurrency
// contract: reads of distinct wordlines may run concurrently (the CI race
// job executes this test under -race) and produce exactly the serial
// results.
func TestConcurrentReadsMatchSerial(t *testing.T) {
	eng := testEngine(t)
	chip := agedTLCChip(t, eng)
	chip.SetFaults(fault.MustNew(stuckProfile(chip.Config(), eng, 0.05)))
	table := NewDefaultTable(chip, 2)
	fb := NewFallback(NewSentinelPolicy(eng), table)
	fb.Probe(chip, 0) // coordinator-side, before the fan-out
	ctl, err := NewController(chip, ecc.CapabilityModel{FrameBits: 8192, T: 28}, 15)
	if err != nil {
		t.Fatal(err)
	}
	wls := chip.Config().WordlinesPerBlock()
	start, ok := SentinelStart(chip, eng, 0, 0x9157)
	if !ok {
		t.Fatal("probe wordline unprogrammed")
	}
	policies := []Policy{table, NewSentinelPolicy(eng), fb,
		&WarmStartPolicy{Start: start, Table: table},
		&WarmStartPolicy{Start: start, Sentinel: NewSentinelPolicy(eng)}}
	for _, pol := range policies {
		serial := make([]Result, wls)
		for wl := 0; wl < wls; wl++ {
			serial[wl] = ctl.Read(wl, 2, pol, mathx.Mix(10, uint64(wl)))
		}
		conc := make([]Result, wls)
		var wg sync.WaitGroup
		for wl := 0; wl < wls; wl++ {
			wg.Add(1)
			go func(wl int) {
				defer wg.Done()
				conc[wl] = ctl.Read(wl, 2, pol, mathx.Mix(10, uint64(wl)))
			}(wl)
		}
		wg.Wait()
		for wl := 0; wl < wls; wl++ {
			s, c := serial[wl], conc[wl]
			if s.OK != c.OK || s.Retries != c.Retries ||
				s.AuxSenses != c.AuxSenses || s.Latency != c.Latency ||
				s.FinalErrors != c.FinalErrors || s.UsedFallback != c.UsedFallback {
				t.Fatalf("%T wl %d: concurrent %+v != serial %+v",
					pol, wl, c, s)
			}
		}
	}
}

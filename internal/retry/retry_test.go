package retry

import (
	"math"
	"sync"
	"testing"

	"sentinel3d/internal/ecc"
	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/physics"
	"sentinel3d/internal/sentinel"
)

func testCfg(kind flash.Kind) flash.Config {
	return flash.Config{
		Kind: kind, Layers: 16, WordlinesPerLayer: 2,
		CellsPerWordline: 16384, OOBFraction: 0.119, Seed: 4, CacheZ: true,
	}
}

func testLayout() sentinel.Layout {
	return sentinel.Layout{Ratio: 0.02, Placement: sentinel.TailOOB}
}

// trainedTLC caches a trained TLC model across tests (training is the
// slowest setup step).
var (
	tlcModelOnce sync.Once
	tlcModel     *sentinel.Model
)

func trainedTLCModel(t testing.TB) *sentinel.Model {
	t.Helper()
	tlcModelOnce.Do(func() {
		chip := flash.MustNew(testCfg(flash.TLC))
		tc := sentinel.DefaultTrainConfig()
		tc.Layout = testLayout()
		tc.WordlinesPerPoint = 12
		m, err := sentinel.Train(chip, tc)
		if err != nil {
			panic(err)
		}
		tlcModel = m
	})
	return tlcModel
}

// agedTLCChip programs all wordlines (with sentinel pattern) and ages the
// block to the paper's Figure 13 condition.
func agedTLCChip(t testing.TB, eng *sentinel.Engine) *flash.Chip {
	t.Helper()
	cfg := testCfg(flash.TLC)
	cfg.Seed = 99
	chip := flash.MustNew(cfg)
	rng := mathx.NewRand(5)
	states := make([]uint8, cfg.CellsPerWordline)
	for wl := 0; wl < cfg.WordlinesPerBlock(); wl++ {
		for i := range states {
			states[i] = uint8(rng.Intn(8))
		}
		eng.Prepare(states)
		if err := chip.ProgramStates(wl, states); err != nil {
			t.Fatal(err)
		}
	}
	chip.Cycle(5000)
	chip.Age(physics.YearHours, physics.RoomTempC)
	return chip
}

func testEngine(t testing.TB) *sentinel.Engine {
	t.Helper()
	m := trainedTLCModel(t)
	eng, err := sentinel.NewEngine(m, testLayout(), sentinel.DefaultCalibrator(),
		testCfg(flash.TLC))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestLatencyModel(t *testing.T) {
	if PageRead(1) >= PageRead(8) {
		t.Fatal("more sensing levels should cost more")
	}
	if AuxSense() >= PageRead(4) {
		t.Fatal("aux sense should be cheaper than an MSB read")
	}
	if MapLookupUS <= 0 || MapLookupUS >= AuxSense() {
		t.Fatalf("mapping lookup %v must cost something but less than any flash access", MapLookupUS)
	}
}

func TestDefaultTableEntries(t *testing.T) {
	chip := flash.MustNew(testCfg(flash.TLC))
	p := NewDefaultTable(chip, 2)
	nv := chip.Coding().NumVoltages()
	e0 := p.Entry(0, nv)
	for v := 1; v <= nv; v++ {
		if e0.Get(v) != 0 {
			t.Fatal("entry 0 must be factory defaults")
		}
	}
	e1, e2 := p.Entry(1, nv), p.Entry(2, nv)
	for v := 1; v <= nv; v++ {
		if e1.Get(v) >= 0 {
			t.Fatalf("entry 1 V%d = %v not negative", v, e1.Get(v))
		}
		if e2.Get(v) >= e1.Get(v) {
			t.Fatal("entries must march downward")
		}
	}
	// Shape: lower voltages step more (retention profile); sentinel
	// voltage steps exactly by Step.
	sv := chip.Coding().SentinelVoltage()
	if math.Abs(e1.Get(sv)+p.Step) > 1e-9 {
		t.Fatalf("sentinel step = %v, want -%v", e1.Get(sv), p.Step)
	}
	if math.Abs(e1.Get(2)) <= math.Abs(e1.Get(nv)) {
		t.Fatal("low voltages should step more than high ones")
	}
}

func TestControllerValidation(t *testing.T) {
	chip := flash.MustNew(testCfg(flash.TLC))
	if _, err := NewController(nil, ecc.DefaultCapability(), 5); err == nil {
		t.Fatal("accepted nil chip")
	}
	if _, err := NewController(chip, ecc.CapabilityModel{}, 5); err == nil {
		t.Fatal("accepted invalid ECC")
	}
	if _, err := NewController(chip, ecc.DefaultCapability(), -1); err == nil {
		t.Fatal("accepted negative budget")
	}
}

func TestFreshChipReadsWithoutRetry(t *testing.T) {
	chip := flash.MustNew(testCfg(flash.TLC))
	rng := mathx.NewRand(2)
	chip.ProgramRandom(0, rng)
	ctl, err := NewController(chip, ecc.CapabilityModel{FrameBits: 8192, T: 30}, 10)
	if err != nil {
		t.Fatal(err)
	}
	table := NewDefaultTable(chip, 2)
	for p := 0; p < 3; p++ {
		res := ctl.Read(0, p, table, uint64(p))
		if !res.OK || res.Retries != 0 {
			t.Fatalf("fresh page %d: ok=%v retries=%d", p, res.OK, res.Retries)
		}
		want := PageRead(len(chip.Coding().PageVoltages(p)))
		if math.Abs(res.Latency-want) > 1e-9 {
			t.Fatalf("latency = %v, want %v", res.Latency, want)
		}
	}
}

func TestAgedChipTableVsSentinel(t *testing.T) {
	// The Figure 13 comparison in miniature: on a worn, retention-aged
	// TLC block, the static table needs several retries on MSB pages
	// while the sentinel policy needs very few.
	eng := testEngine(t)
	chip := agedTLCChip(t, eng)
	capm := ecc.CapabilityModel{FrameBits: 8192, T: 28}
	ctl, err := NewController(chip, capm, 15)
	if err != nil {
		t.Fatal(err)
	}
	table := NewDefaultTable(chip, 2)
	sent := NewSentinelPolicy(eng)

	var tableMSB, sentMSB, tableLat, sentLat float64
	n := 0
	for wl := 0; wl < chip.Config().WordlinesPerBlock(); wl++ {
		rT := ctl.Read(wl, 2, table, mathx.Mix(1, uint64(wl)))
		rS := ctl.Read(wl, 2, sent, mathx.Mix(2, uint64(wl)))
		tableMSB += float64(rT.Retries)
		sentMSB += float64(rS.Retries)
		tableLat += rT.Latency
		sentLat += rS.Latency
		n++
	}
	tableAvg, sentAvg := tableMSB/float64(n), sentMSB/float64(n)
	if tableAvg < 3 {
		t.Fatalf("table avg MSB retries %v suspiciously low", tableAvg)
	}
	if sentAvg > tableAvg/2 {
		t.Fatalf("sentinel (%v) not clearly better than table (%v)",
			sentAvg, tableAvg)
	}
	if sentLat >= tableLat {
		t.Fatal("sentinel latency not lower despite fewer retries")
	}
}

func TestSentinelLSBNeedsNoAuxSense(t *testing.T) {
	eng := testEngine(t)
	chip := agedTLCChip(t, eng)
	capm := ecc.CapabilityModel{FrameBits: 8192, T: 10} // tight: force retries
	ctl, err := NewController(chip, capm, 15)
	if err != nil {
		t.Fatal(err)
	}
	sent := NewSentinelPolicy(eng)
	sawLSBRetry, sawMSBRetry := false, false
	for wl := 0; wl < chip.Config().WordlinesPerBlock(); wl++ {
		rL := ctl.Read(wl, flash.PageLSB, sent, mathx.Mix(3, uint64(wl)))
		if rL.Retries > 0 {
			sawLSBRetry = true
			if rL.AuxSenses != 0 {
				t.Fatalf("LSB read used %d aux senses; the failed read already "+
					"contains the sentinel boundary", rL.AuxSenses)
			}
		}
		rM := ctl.Read(wl, 2, sent, mathx.Mix(4, uint64(wl)))
		if rM.Retries > 0 {
			sawMSBRetry = true
			if rM.AuxSenses == 0 {
				t.Fatal("MSB retry performed no sentinel sense")
			}
		}
	}
	if !sawLSBRetry || !sawMSBRetry {
		t.Skipf("stress did not trigger retries (LSB %v, MSB %v)",
			sawLSBRetry, sawMSBRetry)
	}
}

func TestReadGivesUpAtBudget(t *testing.T) {
	eng := testEngine(t)
	chip := agedTLCChip(t, eng)
	// Impossible capability: every read fails.
	capm := ecc.CapabilityModel{FrameBits: 8192, T: 0}
	ctl, err := NewController(chip, capm, 3)
	if err != nil {
		t.Fatal(err)
	}
	table := NewDefaultTable(chip, 2)
	res := ctl.Read(0, 2, table, 1)
	if res.OK {
		t.Fatal("read succeeded with T=0")
	}
	if res.Retries != 3 {
		t.Fatalf("retries = %d, want full budget 3", res.Retries)
	}
	// Latency covers all four attempts.
	want := 4 * PageRead(4)
	if math.Abs(res.Latency-want) > 1e-9 {
		t.Fatalf("latency = %v, want %v", res.Latency, want)
	}
}

func TestSentinelSessionGivesUp(t *testing.T) {
	eng := testEngine(t)
	chip := agedTLCChip(t, eng)
	capm := ecc.CapabilityModel{FrameBits: 8192, T: 0}
	ctl, err := NewController(chip, capm, 20)
	if err != nil {
		t.Fatal(err)
	}
	sent := NewSentinelPolicy(eng)
	res := ctl.Read(0, 2, sent, 1)
	if res.OK {
		t.Fatal("read succeeded with T=0")
	}
	// Sentinel gives up after inference + calibration budget, well below
	// the controller's 20.
	maxAttempts := 1 + 1 + eng.Cal.MaxSteps
	if res.Retries > maxAttempts {
		t.Fatalf("sentinel retried %d times, budget %d", res.Retries, maxAttempts)
	}
}

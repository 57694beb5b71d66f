package retry

import (
	"math"
	"reflect"
	"testing"

	"sentinel3d/internal/charlab"
	"sentinel3d/internal/ecc"
	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/obs"
)

// TestStepLatencySerialPin pins the serial path byte-for-byte: with
// overlap off, StepLatency must equal PageRead exactly — the frozen
// replay goldens ride on this identity — and with overlap on it hides
// the decode, which is cheaper than any sense (25 + 12n).
func TestStepLatencySerialPin(t *testing.T) {
	for n := 1; n <= 8; n++ {
		if got, want := StepLatency(n, false), PageRead(n); got != want {
			t.Fatalf("StepLatency(%d, false) = %v, PageRead = %v", n, got, want)
		}
		if got, want := StepLatency(n, true), PageRead(n)-ECCDecodeUS; got != want {
			t.Fatalf("StepLatency(%d, true) = %v, want %v", n, got, want)
		}
	}
}

// TestAR2MatchesTableRetries: AR² walks the same vendor table and every
// attempt is a fresh sense, so at the same read seed its retry counts
// and final errors are identical to the serial table — only the latency
// (each retry hides the decode) and OverlapSavedUS differ.
func TestAR2MatchesTableRetries(t *testing.T) {
	eng := testEngine(t)
	chip := agedTLCChip(t, eng)
	ctl, err := NewController(chip, ecc.CapabilityModel{FrameBits: 8192, T: 28}, 15)
	if err != nil {
		t.Fatal(err)
	}
	table := NewDefaultTable(chip, 2)
	ar2 := NewAR2(table)
	sawRetry := false
	for wl := 0; wl < chip.Config().WordlinesPerBlock(); wl++ {
		seed := mathx.Mix(0xa2, uint64(wl))
		rT := ctl.Read(0, wl, 2, table, seed)
		rA := ctl.Read(0, wl, 2, ar2, seed)
		if rA.Retries != rT.Retries || rA.OK != rT.OK || rA.FinalErrors != rT.FinalErrors {
			t.Fatalf("wl %d: ar2 (retries %d ok %v errs %d) diverged from table (%d %v %d)",
				wl, rA.Retries, rA.OK, rA.FinalErrors, rT.Retries, rT.OK, rT.FinalErrors)
		}
		if !reflect.DeepEqual(rA.FinalOffsets, rT.FinalOffsets) {
			t.Fatalf("wl %d: offset schedules diverged", wl)
		}
		wantSaved := float64(rT.Retries) * ECCDecodeUS
		if math.Abs(rA.OverlapSavedUS-wantSaved) > 1e-9 {
			t.Fatalf("wl %d: OverlapSavedUS = %v, want %v", wl, rA.OverlapSavedUS, wantSaved)
		}
		if math.Abs((rT.Latency-rA.Latency)-wantSaved) > 1e-9 {
			t.Fatalf("wl %d: latency gap %v, want %v", wl, rT.Latency-rA.Latency, wantSaved)
		}
		if rT.OverlapSavedUS != 0 {
			t.Fatalf("wl %d: serial table reported overlap savings %v", wl, rT.OverlapSavedUS)
		}
		if rT.Retries > 0 {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Skip("aged chip produced no MSB retries; overlap path unexercised")
	}
}

// TestSentinelHistoryWarmStart: SentinelStart infers block 0's start
// offsets from one sentinel sense, and a warm start from them with
// sentinel recovery spends no more senses (attempts + aux) on MSB reads
// than plain sentinel.
func TestSentinelHistoryWarmStart(t *testing.T) {
	eng := testEngine(t)
	chip := agedTLCChip(t, eng)
	ctl, err := NewController(chip, ecc.CapabilityModel{FrameBits: 8192, T: 28}, 15)
	if err != nil {
		t.Fatal(err)
	}
	start, ok := SentinelStart(chip, eng, 0, 0, 0x9157)
	if !ok || len(start) != chip.Coding().NumVoltages() {
		t.Fatalf("SentinelStart = %v, %v; want %d offsets", start, ok, chip.Coding().NumVoltages())
	}
	if _, ok := SentinelStart(flash.MustNew(testCfg(flash.TLC)), eng, 0, 0, 0x9157); ok {
		t.Fatal("started from an unprogrammed probe wordline")
	}
	sent := NewSentinelPolicy(eng)
	warm := &WarmStartPolicy{Start: map[int]flash.Offsets{0: start}, Sentinel: sent}
	var sentSenses, warmSenses int
	for wl := 0; wl < chip.Config().WordlinesPerBlock(); wl++ {
		seed := mathx.Mix(0x51, uint64(wl))
		rS := ctl.Read(0, wl, 2, sent, seed)
		rW := ctl.Read(0, wl, 2, warm, seed)
		if !rS.OK || !rW.OK {
			t.Fatalf("wl %d: read failed (sentinel %v, warm start %v)", wl, rS.OK, rW.OK)
		}
		sentSenses += 1 + rS.Retries + rS.AuxSenses
		warmSenses += 1 + rW.Retries + rW.AuxSenses
	}
	if warmSenses > sentSenses {
		t.Fatalf("sentinel+history spent %d senses, plain sentinel %d",
			warmSenses, sentSenses)
	}
}

// TestAdaptiveMetricsCounters: the adaptive metrics fields — first-
// attempt hits, start-offset hits/misses, overlap savings — all move
// under the adaptive policies.
func TestAdaptiveMetricsCounters(t *testing.T) {
	eng := testEngine(t)
	chip := agedTLCChip(t, eng)
	ctl, err := NewController(chip, ecc.CapabilityModel{FrameBits: 8192, T: 28}, 15)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry(1)
	ctl.Obs = NewMetrics(reg.Set(0), 2)
	start, ok := SentinelStart(chip, eng, 0, 0, 0x9157)
	if !ok {
		t.Fatal("probe wordline unprogrammed")
	}
	table := NewDefaultTable(chip, 2)
	warm := &WarmStartPolicy{Start: map[int]flash.Offsets{0: start}, Table: table}
	cold := &WarmStartPolicy{Table: table}
	ar2 := NewAR2(table)
	nwl := chip.Config().WordlinesPerBlock()
	for wl := 0; wl < nwl; wl++ {
		ctl.Read(0, wl, 2, cold, mathx.Mix(6, uint64(wl)))
		ctl.Read(0, wl, 2, ar2, mathx.Mix(7, uint64(wl)))
		ctl.Read(0, wl, 2, warm, mathx.Mix(8, uint64(wl)))
	}
	m := ctl.Obs
	if got := m.CacheMisses.Value(); got != int64(nwl) {
		t.Errorf("cache misses = %d, want one per cold read (%d)", got, nwl)
	}
	if got := m.CacheHits.Value(); got != int64(nwl) {
		t.Errorf("cache hits = %d, want one per warm read (%d)", got, nwl)
	}
	if m.FirstAttempt.Value() == 0 {
		t.Error("no first-attempt hits recorded")
	}
	found := false
	for _, h := range reg.Snapshot().Hists {
		if h.Name == "retry.overlap_saved_us" {
			found = true
			if h.Hist.Count() == 0 {
				t.Error("pipelined reads recorded no overlap savings")
			}
		}
	}
	if !found {
		t.Error("retry.overlap_saved_us not in snapshot")
	}
}

func TestCombinedPolicyBeatsBoth(t *testing.T) {
	// The Section V extension: tracked offsets for the first attempt,
	// sentinel inference on failure. Its retry count should be at most
	// the sentinel policy's (the tracked first read sometimes succeeds
	// where defaults fail).
	eng := testEngine(t)
	chip := agedTLCChip(t, eng)
	capm := ecc.CapabilityModel{FrameBits: 8192, T: 26}
	ctl, err := NewController(chip, capm, 15)
	if err != nil {
		t.Fatal(err)
	}
	sent := NewSentinelPolicy(eng)
	combined := &WarmStartPolicy{
		Start:    map[int]flash.Offsets{0: charlab.New(chip).OptimalOffsets(0, 0)},
		Sentinel: sent}

	var sentSum, combSum float64
	combFails := 0
	nwl := chip.Config().WordlinesPerBlock()
	for wl := 0; wl < nwl; wl++ {
		for p := 0; p < 3; p++ {
			rS := ctl.Read(0, wl, p, sent, mathx.Mix3(31, uint64(wl), uint64(p)))
			rC := ctl.Read(0, wl, p, combined, mathx.Mix3(32, uint64(wl), uint64(p)))
			sentSum += float64(rS.Retries)
			combSum += float64(rC.Retries)
			if !rC.OK {
				combFails++
			}
		}
	}
	if combSum > sentSum*1.15 {
		t.Fatalf("combined (%v) clearly worse than sentinel alone (%v)",
			combSum, sentSum)
	}
	if combFails > 3 {
		t.Fatalf("combined policy failed %d reads", combFails)
	}
}

// TestCombinedWithoutTrackingFallsBack: a block without start offsets
// reads exactly like the recovery policy alone — sentinel in Sentinel
// mode, the plain vendor table in Table mode.
func TestCombinedWithoutTrackingFallsBack(t *testing.T) {
	eng := testEngine(t)
	chip := agedTLCChip(t, eng)
	capm := ecc.CapabilityModel{FrameBits: 8192, T: 26}
	ctl, err := NewController(chip, capm, 15)
	if err != nil {
		t.Fatal(err)
	}
	sent := NewSentinelPolicy(eng)
	table := NewDefaultTable(chip, 1.2)
	for _, row := range []struct {
		warm *WarmStartPolicy
		base Policy
	}{
		{&WarmStartPolicy{Start: map[int]flash.Offsets{}, Sentinel: sent}, sent},
		{&WarmStartPolicy{Start: map[int]flash.Offsets{}, Table: table}, table},
	} {
		for wl := 0; wl < chip.Config().WordlinesPerBlock(); wl++ {
			for p := 0; p < 3; p++ {
				seed := mathx.Mix3(41, uint64(wl), uint64(p))
				rB := ctl.Read(0, wl, p, row.base, seed)
				rW := ctl.Read(0, wl, p, row.warm, seed)
				if rB.OK != rW.OK || rB.Retries != rW.Retries || rB.AuxSenses != rW.AuxSenses ||
					!reflect.DeepEqual(rB.FinalOffsets, rW.FinalOffsets) {
					t.Fatalf("%T wl %d page %d: warm start %+v != %T %+v without start offsets",
						row.warm, wl, p, rW, row.base, rB)
				}
			}
		}
	}
}

func TestCombinedLSBUsesAuxSense(t *testing.T) {
	// With tracked offsets, the first LSB attempt is at non-default
	// voltages, so the sentinel step must spend an auxiliary sense
	// instead of reusing the readout.
	eng := testEngine(t)
	chip := agedTLCChip(t, eng)
	capm := ecc.CapabilityModel{FrameBits: 8192, T: 1} // force failures
	ctl, err := NewController(chip, capm, 6)
	if err != nil {
		t.Fatal(err)
	}
	combined := &WarmStartPolicy{
		Start:    map[int]flash.Offsets{0: charlab.New(chip).OptimalOffsets(0, 0)},
		Sentinel: NewSentinelPolicy(eng)}
	res := ctl.Read(0, 3, flash.PageLSB, combined, 99)
	if res.OK {
		t.Skip("read unexpectedly passed with T=1")
	}
	if res.AuxSenses == 0 {
		t.Fatal("combined LSB retry reused a non-default readout as the default sense")
	}
}

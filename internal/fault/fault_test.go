package fault

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
)

func TestValidate(t *testing.T) {
	bad := []Profile{
		{SentinelStuckRate: -0.1, SentinelRegion: [2]int{0, 8}},
		{SentinelStuckRate: 1.5, SentinelRegion: [2]int{0, 8}},
		{SentinelStuckRate: 0.1},                               // empty region
		{StuckHighFraction: 2},                                 // out of range
		{BurstRate: 0.1},                                       // no sigma
		{OutlierWLRate: 0.1},                                   // no shift
		{FTLProgramFailRate: -1},                               // negative
		{FTLEraseFailRate: 1.01},                               // > 1
		{SentinelStuckRate: 0.1, SentinelRegion: [2]int{8, 8}}, // empty
	}
	for i, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("profile %d: expected validation error, got nil", i)
		}
	}
	good := []Profile{
		{},
		{SentinelStuckRate: 0.05, SentinelRegion: [2]int{100, 120}, StuckHighFraction: 1},
		{BurstRate: 0.01, BurstSigma: 30},
		{OutlierWLRate: 0.02, OutlierShift: 80},
		{FTLProgramFailRate: 0.01, FTLEraseFailRate: 0.01},
	}
	for i, p := range good {
		if _, err := New(p); err != nil {
			t.Errorf("profile %d: unexpected error %v", i, err)
		}
	}
}

// TestPerturbDeterministic checks that PerturbVth is a pure function of
// (seed, address, readSeed): repeated calls yield identical perturbations
// regardless of interleaving with other addresses.
func TestPerturbDeterministic(t *testing.T) {
	in := MustNew(Profile{
		Seed:              7,
		SentinelStuckRate: 0.3,
		SentinelRegion:    [2]int{0, 64},
		StuckHighFraction: 0.5,
		BurstRate:         0.5,
		BurstSigma:        25,
		OutlierWLRate:     0.3,
		OutlierShift:      60,
	})
	base := make([]float64, 64)
	run := func(wl int, readSeed uint64) []float64 {
		v := make([]float64, len(base))
		copy(v, base)
		in.PerturbVth(wl, readSeed, v)
		return v
	}
	a1 := run(2, 33)
	// Interleave unrelated calls, then repeat.
	_ = run(0, 1)
	_ = run(9, 99)
	a2 := run(2, 33)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("cell %d: perturbation not deterministic: %v vs %v", i, a1[i], a2[i])
		}
	}
	// A different read seed must redraw burst noise. At BurstRate 0.5 one
	// wordline may draw no burst on either read, so look over several.
	same := true
	for wl := 0; wl < 8 && same; wl++ {
		x, y := run(wl, 33), run(wl, 34)
		for i := range x {
			if x[i] != y[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different readSeed produced identical perturbation with BurstRate=0.5")
	}
}

// TestPerturbDigestPinned pins the bytes PerturbVth writes under all three
// chip fault processes at once. No golden experiment drives outlier
// wordlines or bursts (only the flashlab fault flags do), so this digest is
// what holds their hash keys fixed, including the zero slot each key keeps
// before the wordline.
func TestPerturbDigestPinned(t *testing.T) {
	in := MustNew(Profile{
		Seed:              0x5eed,
		SentinelStuckRate: 0.1,
		SentinelRegion:    [2]int{40, 64},
		StuckHighFraction: 0.5,
		BurstRate:         0.3,
		BurstSigma:        25,
		OutlierWLRate:     0.3,
		OutlierShift:      60,
	})
	h := fnv.New64a()
	var buf [8]byte
	stuck, outliers, bursts := 0, 0, 0
	for wl := 0; wl < 12; wl++ {
		for readSeed := uint64(1); readSeed <= 4; readSeed++ {
			v := make([]float64, 64)
			in.PerturbVth(wl, readSeed, v)
			for i, x := range v {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
				h.Write(buf[:])
				if i >= 40 && math.Abs(x) > stuckShift/2 {
					stuck++
				}
			}
			// A cell outside the stuck region moves only by an outlier
			// shift (exactly ±60) and/or burst noise (anything else).
			switch x := math.Abs(v[0]); {
			case x == 60:
				outliers++
			case x != 0:
				bursts++
			}
		}
	}
	if stuck == 0 || outliers == 0 || bursts == 0 {
		t.Fatalf("profile exercises too little: stuck=%d outlier-only reads=%d burst reads=%d",
			stuck, outliers, bursts)
	}
	const want = "74af5d26328da3e4"
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Fatalf("PerturbVth digest %s, want %s", got, want)
	}
}

// TestStuckCellsFrozen checks that the stuck-cell set depends only on the
// physical address, not on the read seed.
func TestStuckCellsFrozen(t *testing.T) {
	in := MustNew(Profile{
		Seed:              11,
		SentinelStuckRate: 0.25,
		SentinelRegion:    [2]int{0, 256},
		StuckHighFraction: 1,
	})
	stuckAt := func(readSeed uint64) map[int]bool {
		v := make([]float64, 256)
		in.PerturbVth(0, readSeed, v)
		m := make(map[int]bool)
		for i, x := range v {
			if x != 0 {
				m[i] = true
			}
		}
		return m
	}
	m1, m2 := stuckAt(1), stuckAt(999)
	if len(m1) == 0 {
		t.Fatal("no stuck cells at rate 0.25 over 256 cells")
	}
	if len(m1) != len(m2) {
		t.Fatalf("stuck set size varies with readSeed: %d vs %d", len(m1), len(m2))
	}
	for i := range m1 {
		if !m2[i] {
			t.Fatalf("cell %d stuck at readSeed 1 but not 999", i)
		}
	}
}

// TestStuckRateEmpirical checks the realized stuck fraction tracks the
// requested rate over a large region.
func TestStuckRateEmpirical(t *testing.T) {
	const n = 20000
	in := MustNew(Profile{
		Seed:              3,
		SentinelStuckRate: 0.1,
		SentinelRegion:    [2]int{0, n},
		StuckHighFraction: 1,
	})
	v := make([]float64, n)
	in.PerturbVth(0, 1, v)
	count := 0
	for _, x := range v {
		if x != 0 {
			count++
		}
	}
	got := float64(count) / n
	if math.Abs(got-0.1) > 0.01 {
		t.Fatalf("realized stuck rate %v, want 0.1±0.01", got)
	}
}

func TestStuckHighFraction(t *testing.T) {
	const n = 20000
	in := MustNew(Profile{
		Seed:              3,
		SentinelStuckRate: 0.5,
		SentinelRegion:    [2]int{0, n},
		StuckHighFraction: 0.5,
	})
	v := make([]float64, n)
	in.PerturbVth(0, 1, v)
	up, down := 0, 0
	for _, x := range v {
		switch {
		case x > 0:
			up++
		case x < 0:
			down++
		}
	}
	if up == 0 || down == 0 {
		t.Fatalf("expected both directions at StuckHighFraction 0.5: up=%d down=%d", up, down)
	}
	frac := float64(up) / float64(up+down)
	if math.Abs(frac-0.5) > 0.03 {
		t.Fatalf("high fraction %v, want 0.5±0.03", frac)
	}
}

func TestRegionClamped(t *testing.T) {
	in := MustNew(Profile{
		Seed:              5,
		SentinelStuckRate: 1,
		SentinelRegion:    [2]int{-10, 1 << 20},
		StuckHighFraction: 1,
	})
	v := make([]float64, 16)
	in.PerturbVth(0, 1, v) // must not panic
	for i, x := range v {
		if x != stuckShift {
			t.Fatalf("cell %d: got %v, want %v (rate 1)", i, x, stuckShift)
		}
	}
}

func TestZeroProfileIsNoop(t *testing.T) {
	in := MustNew(Profile{Seed: 42})
	v := []float64{1, 2, 3}
	in.PerturbVth(0, 7, v)
	if v[0] != 1 || v[1] != 2 || v[2] != 3 {
		t.Fatalf("zero profile perturbed vth: %v", v)
	}
	if in.PageProgramFails(0, 0, 0, 0) || in.BlockEraseFails(0, 0, 0) {
		t.Fatal("zero profile reported a failure")
	}
}

// TestChipIntegration attaches an injector to a real chip and checks that
// stuck sentinel cells flip sensed bits deterministically, only inside the
// configured region.
func TestChipIntegration(t *testing.T) {
	cfg := flash.Config{
		Kind:              flash.TLC,
		Layers:            4,
		WordlinesPerLayer: 1,
		CellsPerWordline:  2048,
		Seed:              4,
	}
	chip := flash.MustNew(cfg)
	region := [2]int{cfg.CellsPerWordline - 64, cfg.CellsPerWordline}

	// Program fault-free, then attach stuck cells: reads must be
	// deterministic and affected only inside the region.
	chip.ProgramRandom(0, mathx.NewRand(2))
	clean := chip.Sense(0, 1, 0, 3)
	chip.SetFaults(MustNew(Profile{
		Seed:              21,
		SentinelStuckRate: 0.5,
		SentinelRegion:    region,
		StuckHighFraction: 1,
	}))
	f1 := chip.Sense(0, 1, 0, 3)
	f2 := chip.Sense(0, 1, 0, 3)
	diffIn, diffOut := 0, 0
	for i := 0; i < cfg.CellsPerWordline; i++ {
		if f1.Get(i) != f2.Get(i) {
			t.Fatalf("faulted sense not deterministic at cell %d", i)
		}
		if f1.Get(i) != clean.Get(i) {
			if i >= region[0] {
				diffIn++
			} else {
				diffOut++
			}
		}
	}
	if diffOut != 0 {
		t.Fatalf("stuck faults leaked outside the region: %d cells", diffOut)
	}
	if diffIn == 0 {
		t.Fatal("stuck-high faults at rate 0.5 flipped no sentinel-region bits")
	}
}

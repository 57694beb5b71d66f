package flash

import (
	"math"
	"testing"

	"sentinel3d/internal/mathx"
	"sentinel3d/internal/physics"
)

// testConfig returns a small, fast geometry for unit tests.
func testConfig(kind Kind) Config {
	return Config{
		Kind:              kind,
		Layers:            8,
		WordlinesPerLayer: 2,
		CellsPerWordline:  4096,
		Seed:              7,
		CacheZ:            true,
	}
}

// paperConfig returns the paper chips' block geometry: 64 layers, 12
// wordlines per layer (768 wordlines per block), with CellsPerWordline
// reduced from the physical ~150k to keep tests fast.
func paperConfig(kind Kind) Config {
	return Config{
		Kind:              kind,
		Layers:            64,
		WordlinesPerLayer: 12,
		CellsPerWordline:  32768,
		Seed:              1,
		CacheZ:            true,
	}
}

// countPageErrors reads page p with offsets o and returns the number of
// bit errors against the programmed data.
func (c *Chip) countPageErrors(wl, p int, o Offsets, readSeed uint64) int {
	op := c.BeginRead(wl, readSeed)
	defer op.Close()
	return op.CountPageErrors(p, o)
}

func TestNewValidation(t *testing.T) {
	bad := testConfig(TLC)
	bad.Layers = 0
	if _, err := New(bad); err == nil {
		t.Fatal("accepted zero layers")
	}
	bad = testConfig(TLC)
	bad.CellsPerWordline = 10
	if _, err := New(bad); err == nil {
		t.Fatal("accepted tiny wordline")
	}
}

func TestGeometryHelpers(t *testing.T) {
	cfg := testConfig(QLC)
	if cfg.WordlinesPerBlock() != 16 {
		t.Fatalf("WordlinesPerBlock = %d", cfg.WordlinesPerBlock())
	}
	if cfg.UserCells()+cfg.OOBCells() != cfg.CellsPerWordline {
		t.Fatal("user + OOB != total")
	}
	if cfg.OOBCells() < 400 || cfg.OOBCells() > 500 {
		t.Fatalf("OOBCells = %d, want ~487", cfg.OOBCells())
	}
	c := MustNew(cfg)
	if c.LayerOf(0) != 0 || c.LayerOf(8) != 0 || c.LayerOf(9) != 1 {
		t.Fatal("LayerOf wrong")
	}
}

func TestProgramAndTrueBitsRoundTrip(t *testing.T) {
	c := MustNew(testConfig(TLC))
	states := make([]uint8, c.Config().CellsPerWordline)
	for i := range states {
		states[i] = uint8(i % 8)
	}
	if err := c.ProgramStates(0, states); err != nil {
		t.Fatal(err)
	}
	if !c.IsProgrammed(0) {
		t.Fatal("wordline not marked programmed")
	}
	got := c.wls[0].states
	for i := range got {
		if got[i] != states[i] {
			t.Fatalf("state mismatch at %d", i)
		}
	}
	// TrueBits must match the coding tables.
	for p := 0; p < 3; p++ {
		tb := c.TrueBits(0, p)
		for i := 0; i < 64; i++ {
			want := c.Coding().PageBit(int(states[i]), p) == 1
			if tb.Get(i) != want {
				t.Fatalf("TrueBits page %d cell %d = %v, want %v",
					p, i, tb.Get(i), want)
			}
		}
	}
}

func TestProgramStatesRejectsBadInput(t *testing.T) {
	c := MustNew(testConfig(TLC))
	if err := c.ProgramStates(0, make([]uint8, 10)); err == nil {
		t.Fatal("accepted short state slice")
	}
	states := make([]uint8, c.Config().CellsPerWordline)
	states[5] = 8 // TLC max state is 7
	if err := c.ProgramStates(0, states); err == nil {
		t.Fatal("accepted out-of-range state")
	}
}

func TestFreshReadIsNearlyErrorFree(t *testing.T) {
	limits := map[Kind]float64{TLC: 2e-3, QLC: 8e-3}
	for _, kind := range []Kind{TLC, QLC} {
		c := MustNew(testConfig(kind))
		rng := mathx.NewRand(3)
		c.ProgramRandom(0, rng)
		for p := 0; p < kind.Bits(); p++ {
			rber := float64(c.countPageErrors(0, p, nil, 99)) / float64(c.cfg.CellsPerWordline)
			if rber > limits[kind] {
				t.Errorf("%v fresh page %d RBER = %v, want < %v",
					kind, p, rber, limits[kind])
			}
		}
	}
}

func TestAgingIncreasesErrors(t *testing.T) {
	c := MustNew(testConfig(QLC))
	rng := mathx.NewRand(3)
	c.ProgramRandom(0, rng)
	p := QLC.Bits() - 1 // MSB
	fresh := c.countPageErrors(0, p, nil, 1)
	c.Cycle(1000)
	c.Age(physics.YearHours, physics.RoomTempC)
	aged := c.countPageErrors(0, p, nil, 1)
	if aged <= fresh+10 {
		t.Fatalf("aging did not increase errors: fresh %d, aged %d", fresh, aged)
	}
	rber := float64(aged) / float64(c.Config().CellsPerWordline)
	if rber < 1e-3 || rber > 2e-1 {
		t.Fatalf("aged MSB RBER = %v, want within [1e-3, 2e-1]", rber)
	}
}

func TestOptimalOffsetReducesErrors(t *testing.T) {
	// Tuning all voltages down after heavy retention must beat defaults.
	c := MustNew(testConfig(QLC))
	rng := mathx.NewRand(3)
	c.ProgramRandom(0, rng)
	c.Cycle(1000)
	c.Age(physics.YearHours, physics.RoomTempC)
	p := QLC.Bits() - 1
	def := c.countPageErrors(0, p, nil, 5)
	best := def
	for shift := -40.0; shift <= 0; shift += 4 {
		o := ZeroOffsets(c.Coding().NumVoltages())
		for i := range o {
			// Scale the trial shift like the physics: bigger for lower
			// voltages.
			o[i] = shift * (1 - float64(i)/float64(len(o)))
		}
		if e := c.countPageErrors(0, p, o, 5); e < best {
			best = e
		}
	}
	if best >= def {
		t.Fatalf("no offset improved on default: def=%d best=%d", def, best)
	}
	if float64(best) > 0.6*float64(def) {
		t.Fatalf("tuning gain too small: def=%d best=%d", def, best)
	}
}

func TestReadNoiseMakesReadsDiffer(t *testing.T) {
	// Two reads at the same voltages can differ (paper Section IV-B), but
	// only slightly.
	c := MustNew(testConfig(QLC))
	rng := mathx.NewRand(3)
	c.ProgramRandom(0, rng)
	c.Cycle(1000)
	c.Age(physics.YearHours, physics.RoomTempC)
	p := QLC.Bits() - 1
	r1 := c.ReadPage(0, p, nil, 1)
	r2 := c.ReadPage(0, p, nil, 2)
	diff := r1.XorCount(r2)
	if diff == 0 {
		t.Fatal("two reads identical despite read noise")
	}
	if diff > c.Config().CellsPerWordline/20 {
		t.Fatalf("reads differ too much: %d cells", diff)
	}
	// Same seed = identical read.
	r3 := c.ReadPage(0, p, nil, 1)
	if r1.XorCount(r3) != 0 {
		t.Fatal("same-seed reads differ")
	}
}

func TestVoltageErrorsConsistentWithPageErrors(t *testing.T) {
	// The LSB page has a single boundary, so its page errors must equal
	// the boundary's up+down errors at the same read seed.
	c := MustNew(testConfig(QLC))
	rng := mathx.NewRand(3)
	c.ProgramRandom(0, rng)
	c.Cycle(1000)
	c.Age(physics.YearHours, physics.RoomTempC)
	sv := c.Coding().SentinelVoltage()
	up, down := c.VoltageErrors(0, sv, 0, 42)
	pageErr := c.countPageErrors(0, PageLSB, nil, 42)
	if up+down != pageErr {
		t.Fatalf("LSB page errors %d != boundary errors %d+%d",
			pageErr, up, down)
	}
}

func TestRetentionShiftProducesDownErrorsAtSentinel(t *testing.T) {
	// Charge leakage moves distributions left: cells in S_i fall below
	// the boundary (down errors dominate), which is what drives d < 0 in
	// the paper's inference.
	c := MustNew(testConfig(QLC))
	rng := mathx.NewRand(3)
	c.ProgramRandom(0, rng)
	c.Cycle(1000)
	c.Age(physics.YearHours, physics.RoomTempC)
	sv := c.Coding().SentinelVoltage()
	up, down := c.VoltageErrors(0, sv, 0, 7)
	if down <= up {
		t.Fatalf("after retention, down (%d) should exceed up (%d)", down, up)
	}
}

func TestSenseMatchesVoltageClassification(t *testing.T) {
	c := MustNew(testConfig(TLC))
	rng := mathx.NewRand(3)
	c.ProgramRandom(0, rng)
	// A sense far below the erased state is all ones; far above the top
	// state, all zeros. Offsets are relative to the default voltage.
	low := c.Sense(0, 1, -5000, 1)
	if low.popCount() != c.Config().CellsPerWordline {
		t.Fatalf("low sense popcount = %d", low.popCount())
	}
	nv := c.Coding().NumVoltages()
	high := c.Sense(0, nv, 5000, 1)
	if high.popCount() != 0 {
		t.Fatalf("high sense popcount = %d", high.popCount())
	}
}

func TestSenseConsistentWithLSBRead(t *testing.T) {
	// An LSB page read is exactly one sense at the sentinel voltage with
	// the bit inverted (bit=1 below the boundary).
	c := MustNew(testConfig(QLC))
	rng := mathx.NewRand(4)
	c.ProgramRandom(1, rng)
	c.Age(1000, physics.RoomTempC)
	sv := c.Coding().SentinelVoltage()
	sense := c.Sense(1, sv, 0, 9)
	page := c.ReadPage(1, PageLSB, nil, 9)
	n := c.Config().CellsPerWordline
	for i := 0; i < n; i++ {
		if sense.Get(i) == page.Get(i) {
			t.Fatalf("cell %d: sense %v should be inverse of LSB bit %v",
				i, sense.Get(i), page.Get(i))
		}
	}
}

// TestZCacheMatchesHashPath: CacheZ on and off read a wordline alike up
// to the precision of its program offsets z, float32 in the cache and
// float64 when hashed. A cell whose Vth lies within that rounding of a
// read voltage may read differently, so a vanishing fraction may flip.
func TestZCacheMatchesHashPath(t *testing.T) {
	cfgA := testConfig(QLC)
	cfgA.CacheZ = true
	cfgB := testConfig(QLC)
	cfgB.CacheZ = false
	a, b := MustNew(cfgA), MustNew(cfgB)
	states := make([]uint8, cfgA.CellsPerWordline)
	r := mathx.NewRand(11)
	for i := range states {
		states[i] = uint8(r.Intn(16))
	}
	if err := a.ProgramStates(3, states); err != nil {
		t.Fatal(err)
	}
	if err := b.ProgramStates(3, states); err != nil {
		t.Fatal(err)
	}
	a.Cycle(2000)
	b.Cycle(2000)
	a.Age(8760, physics.RoomTempC)
	b.Age(8760, physics.RoomTempC)
	for p := 0; p < 4; p++ {
		ra := a.ReadPage(3, p, nil, 77)
		rb := b.ReadPage(3, p, nil, 77)
		if n := ra.XorCount(rb); float64(n) > 1e-3*float64(cfgA.CellsPerWordline) {
			t.Fatalf("page %d: cached and hashed reads differ in %d cells", p, n)
		}
	}
}

// TestHashedEagerMatchesCellVth: without CacheZ, the eager Vth vector
// (the offsets hashed by FillCellZ64, summed by the kernel shared with
// the cache, plus the noise stream) equals the scalar reference
// physics.CellVth cell for cell.
func TestHashedEagerMatchesCellVth(t *testing.T) {
	cfg := testConfig(QLC)
	cfg.CacheZ = false
	cfg.CellsPerWordline = 1000
	c := MustNew(cfg)
	r := mathx.NewRand(5)
	for wl := 0; wl < cfg.WordlinesPerBlock(); wl++ {
		c.ProgramRandom(wl, r)
	}
	c.ProgramRandom(3, r) // a second program epoch
	c.Cycle(3000)
	c.Age(2000, physics.RoomTempC)
	m, n := c.Model(), cfg.CellsPerWordline
	for _, wl := range []int{0, 3, 9} {
		var env physics.WLEnv
		m.EnvInto(&env, c.LayerOf(wl), uint64(wl), c.Stress())
		w := c.wordline(wl)
		for _, seed := range []uint64{1, 0xabc} {
			vth := c.vthAll(wl, seed, nil, new(physics.WLEnv))
			for i, x := range vth {
				want := m.CellVth(env, uint64(wl), i, n, int(w.states[i]), w.epoch, seed)
				if x != want || math.IsNaN(x) {
					t.Fatalf("wl %d seed %#x cell %d: Vth %v, CellVth %v", wl, seed, i, x, want)
				}
			}
		}
	}
}

func TestHighTemperatureAcceleratesErrors(t *testing.T) {
	// One hour at 80C must hurt much more than one hour at 25C
	// (paper Figs. 4-5).
	mk := func(tempC float64) int {
		c := MustNew(testConfig(QLC))
		rng := mathx.NewRand(3)
		c.ProgramRandom(0, rng)
		c.Cycle(1000)
		c.Age(1, tempC)
		return c.countPageErrors(0, QLC.Bits()-1, nil, 5)
	}
	room := mk(physics.RoomTempC)
	hot := mk(80)
	if hot <= room {
		t.Fatalf("80C errors (%d) not above 25C errors (%d)", hot, room)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	c := MustNew(testConfig(TLC))
	for _, fn := range []func(){
		func() { c.ReadPage(999, 0, nil, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on out-of-range address")
				}
			}()
			fn()
		}()
	}
	// Reading an unprogrammed wordline panics too.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic reading unprogrammed wordline")
			}
		}()
		c.ReadPage(5, 0, nil, 1)
	}()
}

// TestDefaultConfigSane: the paper chips' block geometry validates.
func TestDefaultConfigSane(t *testing.T) {
	for _, kind := range []Kind{TLC, QLC} {
		cfg := paperConfig(kind)
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		if cfg.WordlinesPerBlock() != 768 {
			t.Fatalf("wordlines per block = %d, want 768", cfg.WordlinesPerBlock())
		}
	}
}

func TestOffsetsHelpers(t *testing.T) {
	var nilOfs Offsets
	if nilOfs.Get(3) != 0 {
		t.Fatal("nil offsets should read 0")
	}
	if nilOfs.Clone() != nil {
		t.Fatal("nil clone should be nil")
	}
	o := ZeroOffsets(7)
	o[3] = -5
	if o.Get(4) != -5 {
		t.Fatal("Get is 1-based on voltage index")
	}
	cl := o.Clone()
	cl[3] = 1
	if o[3] != -5 {
		t.Fatal("Clone aliases")
	}
	if math.Abs(o.Get(1)) > 0 {
		t.Fatal("zero offset wrong")
	}
}

package flash

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"sentinel3d/internal/mathx"
	"sentinel3d/internal/physics"
)

// beginEager opens the eager form of BeginRead's handle on any chip: the
// whole noisy vector up front, no noise cache. It is the reference the
// lazy handle must match bit for bit.
func beginEager(c *Chip, wl int, readSeed uint64) *ReadOp {
	op := &ReadOp{c: c, wl: wl, readSeed: readSeed, states: c.wordline(wl).states}
	op.vth = c.vthAll(wl, readSeed, nil, &op.env)
	return op
}

// lazyChip builds a small fault-free chip (so BeginRead takes the lazy
// path) at the given wear and retention, with its program offsets
// cached (cacheZ) or hashed on every read.
func lazyChip(t testing.TB, kind Kind, cells, pe int, hours float64, cacheZ bool) *Chip {
	t.Helper()
	cfg := paperConfig(kind)
	cfg.Layers = 2
	cfg.WordlinesPerLayer = 2
	cfg.CellsPerWordline = cells
	cfg.CacheZ = cacheZ
	c := MustNew(cfg)
	r := mathx.NewRand(11)
	for wl := 0; wl < cfg.WordlinesPerBlock(); wl++ {
		c.ProgramRandom(wl, r)
	}
	c.SetStress(physics.Stress{PECycles: pe}.Aged(c.Model().P, hours, physics.RoomTempC))
	return c
}

// extremeSeed returns a read seed whose sensing-noise hash for cell i is
// exactly h, by inverting the hash chain of physics.NoiseStream:
// At(i) = σ·GaussFromHash(Mix(Mix(seed, dsReadNoise), i)), and Mix(a, b)
// is the bijection Hash64 applied to a ^ (b·γ + δ).
func extremeSeed(i int, h uint64) uint64 {
	const dsReadNoise = 0x52644e7a
	mixKey := func(b uint64) uint64 { return b*0x9e3779b97f4a7c15 + 0x165667b19e3779f9 }
	base := unhash64(h) ^ mixKey(uint64(i))
	return unhash64(base) ^ mixKey(dsReadNoise)
}

// unhash64 inverts mathx.Hash64 (the SplitMix64 finalizer).
func unhash64(x uint64) uint64 {
	unshift := func(x uint64, s uint) uint64 { // inverse of x ^= x >> s
		y := x
		for k := s; k < 64; k += s {
			y = x ^ y>>s
		}
		return y
	}
	x = unshift(x, 31)
	x *= 0x319642b2d24d8ec3 // inverse of 0x94d049bb133111eb mod 2^64
	x = unshift(x, 27)
	x *= 0x96de1b173f119089 // inverse of 0xbf58476d1ce4e5b9 mod 2^64
	x = unshift(x, 30)
	return x - 0x9e3779b97f4a7c15
}

func TestUnhash64(t *testing.T) {
	r := mathx.NewRand(1)
	for i := 0; i < 1000; i++ {
		x := r.Uint64()
		if got := unhash64(mathx.Hash64(x)); got != x {
			t.Fatalf("unhash64(Hash64(%#x)) = %#x", x, got)
		}
	}
}

// randOffset draws a query offset: mostly within reach of the states,
// sometimes NaN (of either sign bit), ±Inf or far away.
func randOffset(r *mathx.Rand) float64 {
	switch r.Intn(20) {
	case 0:
		if r.Intn(2) == 0 {
			return -math.NaN()
		}
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return (r.Float64() - 0.5) * 1e6
	}
	return (r.Float64() - 0.5) * 300
}

// randGrid draws a sweep grid: usually ascending, possibly with
// duplicates and infinite ends, sometimes NaN or out of order.
func randGrid(r *mathx.Rand) []float64 {
	offs := make([]float64, 1+r.Intn(10))
	o := (r.Float64() - 0.7) * 150
	for k := range offs {
		if r.Intn(4) > 0 {
			o += r.Float64() * 20
		}
		offs[k] = o
	}
	switch r.Intn(10) {
	case 0:
		offs[0] = math.Inf(-1)
	case 1:
		offs[len(offs)-1] = math.Inf(1)
	case 2:
		offs[r.Intn(len(offs))] = math.NaN()
	case 3:
		offs[r.Intn(len(offs))] = randOffset(r)
	}
	return offs
}

// lazyEagerCase drives a lazy and an eager handle on one wordline
// through the same sequence of queries and redraws and fails on the
// first answer that differs. target, when non-empty, lists read voltages
// that half of the queries aim at.
type lazyEagerCase struct {
	t       testing.TB
	c       *Chip
	wl      int
	lazy    *ReadOp
	eager   *ReadOp
	r       *mathx.Rand
	target  []float64 // read voltages to aim at
	planted []int     // cells given a Vth by plant
}

func (lc *lazyEagerCase) fail(format string, args ...any) {
	lc.t.Helper()
	cfg := lc.c.Config()
	lc.t.Fatalf("%v cells=%d wl=%d seed=%#x: %s", cfg.Kind, cfg.CellsPerWordline,
		lc.wl, lc.lazy.readSeed, fmt.Sprintf(format, args...))
}

// offset returns a query offset for voltage v: random, or aimed so that
// the read voltage lands on a target.
func (lc *lazyEagerCase) offset(v int) float64 {
	if len(lc.target) > 0 && lc.r.Intn(2) == 0 {
		rv := lc.target[lc.r.Intn(len(lc.target))]
		return rv - lc.c.Model().DefaultReadVoltage(v)
	}
	return randOffset(lc.r)
}

// grid returns a sweep grid for voltage v (any voltage when v is 0):
// random, or with one offset aimed at a target, so that a sweep
// threshold lands on it.
func (lc *lazyEagerCase) grid(v int) []float64 {
	offs := randGrid(lc.r)
	if len(lc.target) > 0 && lc.r.Intn(2) == 0 {
		if v == 0 {
			v = 1 + lc.r.Intn(lc.c.Coding().NumVoltages())
		}
		offs[lc.r.Intn(len(offs))] = lc.target[lc.r.Intn(len(lc.target))] - lc.c.Model().DefaultReadVoltage(v)
		sort.Float64s(offs)
	}
	return offs
}

// senseNoised returns the cells the lazy handle must have noised after
// sensing read voltage rv: those it had, and those inside rv's noise
// window, the reference test.
func (lc *lazyEagerCase) senseNoised(rv float64) Bitmap {
	want := append(Bitmap(nil), lc.lazy.noised...)
	win := lc.lazy.window(rv)
	for i, x := range lc.lazy.vth {
		if x > win.lo && x < win.hi {
			want.Set(i, true)
		}
	}
	return want
}

// pageNoised returns the cells the lazy handle must have noised after
// reading page p with offsets o: those it had, and those outside the
// interval between the noise windows of the levels below and above
// them, by the reference scan: float comparisons, ranks counted level
// by level.
func (lc *lazyEagerCase) pageNoised(p int, o Offsets) Bitmap {
	want := append(Bitmap(nil), lc.lazy.noised...)
	var levels []float64
	for k, v := range lc.c.Coding().PageVoltages(p) {
		rv := lc.c.voltage(v, o)
		if k > 0 && (rv < levels[k-1] || levels[k-1] != levels[k-1]) {
			rv = levels[k-1]
		}
		levels = append(levels, rv)
	}
	for i, x := range lc.lazy.vth {
		r := 0
		for _, lv := range levels {
			if x >= lv {
				r++
			}
		}
		lo, hi := math.Inf(-1), math.Inf(1)
		if r > 0 {
			lo = lc.lazy.window(levels[r-1]).hi
		}
		if r < len(levels) {
			hi = lc.lazy.window(levels[r]).lo
		}
		if x < lo || x > hi {
			want.Set(i, true)
		}
	}
	return want
}

// plant gives random cells of both handles the Vth values ys, the
// eager one with the cell's noise added, as if the wordline held them;
// replant renews the eager cells' noise after a redraw.
func (lc *lazyEagerCase) plant(ys []float64) {
	for _, y := range ys {
		i := lc.r.Intn(lc.lazy.Cells())
		lc.lazy.vth0[i], lc.lazy.vth[i] = y, y
		if lc.lazy.noised.Get(i) {
			lc.lazy.vth[i] = y + lc.lazy.noise.At(i)
		}
		lc.planted = append(lc.planted, i)
	}
	lc.replant()
}

func (lc *lazyEagerCase) replant() {
	for _, i := range lc.planted {
		lc.eager.vth[i] = lc.lazy.vth0[i] + lc.lazy.noise.At(i)
	}
}

// plantValues are Vth values no wordline holds, for plant: NaN of
// either sign, the infinities and huge magnitudes.
var plantValues = []float64{math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1),
	1e300, -1e300, math.MaxFloat64, -math.MaxFloat64}

// panics reports whether f panics.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

func (lc *lazyEagerCase) step() {
	lc.t.Helper()
	c, r := lc.c, lc.r
	nv := c.Coding().NumVoltages()
	switch r.Intn(7) {
	case 0:
		v := 1 + r.Intn(nv)
		off := lc.offset(v)
		eager := lc.eager.Sense(v, off)
		want := lc.senseNoised(c.voltage(v, nil) + off)
		if !bitmapsEqual(lc.lazy.Sense(v, off), eager) {
			lc.fail("Sense(v=%d, off=%v) differs", v, off)
		}
		if !bitmapsEqual(eager, refSense(lc.eager.vth, c.voltage(v, nil)+off)) {
			lc.fail("eager Sense(v=%d, off=%v) differs from the bit-by-bit reference", v, off)
		}
		if !bitmapsEqual(lc.lazy.noised, want) {
			lc.fail("Sense(v=%d, off=%v) noised %d cells, want %d", v, off, lc.lazy.noised.popCount(), want.popCount())
		}
	case 1, 2:
		p := r.Intn(c.Coding().Bits())
		var o Offsets
		if r.Intn(4) > 0 {
			o = make(Offsets, nv)
			for v := range o {
				if r.Intn(2) == 0 {
					o[v] = lc.offset(v + 1)
				}
			}
		}
		want := lc.pageNoised(p, o)
		if r.Intn(2) == 0 {
			eager := lc.eager.ReadPageInto(nil, p, o)
			if !bitmapsEqual(lc.lazy.ReadPageInto(nil, p, o), eager) {
				lc.fail("ReadPage(p=%d, o=%v) differs", p, o)
			}
			if !bitmapsEqual(eager, refReadPage(c, lc.eager.vth, p, o)) {
				lc.fail("eager ReadPage(p=%d, o=%v) differs from the scan-and-stop reference", p, o)
			}
		} else if a, b := lc.lazy.CountPageErrors(p, o), lc.eager.CountPageErrors(p, o); a != b {
			lc.fail("CountPageErrors(p=%d, o=%v) = %d, eager %d", p, o, a, b)
		}
		if !bitmapsEqual(lc.lazy.noised, want) {
			lc.fail("ReadPage(p=%d, o=%v) noised %d cells, want %d", p, o, lc.lazy.noised.popCount(), want.popCount())
		}
	case 3:
		v := 1 + r.Intn(nv)
		off := lc.offset(v)
		lu, ld := lc.lazy.VoltageErrors(v, off)
		eu, ed := lc.eager.VoltageErrors(v, off)
		if lu != eu || ld != ed {
			lc.fail("VoltageErrors(v=%d, off=%v) = (%d,%d), eager (%d,%d)", v, off, lu, ld, eu, ed)
		}
	case 4:
		v := 1 + r.Intn(nv)
		offs := lc.grid(v)
		var lu, ld, eu, ed []int
		lp := panics(func() { lu, ld = lc.lazy.sweepVoltage(v, offs) })
		ep := panics(func() { eu, ed = lc.eager.sweepVoltage(v, offs) })
		if lp != ep || fmt.Sprint(lu, ld) != fmt.Sprint(eu, ed) {
			lc.fail("sweepVoltage(v=%d, %v) = %v %v (panic %v), eager %v %v (panic %v)",
				v, offs, lu, ld, lp, eu, ed, ep)
		}
	case 5:
		offs := lc.grid(0)
		plan := lc.c.PlanSweep(offs)
		var l, e [][]int
		lp := panics(func() { l = lc.lazy.SweepPlanned(plan) })
		ep := panics(func() { e = lc.eager.SweepPlanned(plan) })
		if lp != ep || fmt.Sprint(l) != fmt.Sprint(e) {
			lc.fail("SweepPlanned(%v) = %v (panic %v), eager %v (panic %v)", offs, l, lp, e, ep)
		}
	case 6:
		seed := r.Uint64()
		if r.Intn(4) == 0 {
			seed = lc.lazy.readSeed // a redraw to the same seed changes nothing
		}
		lc.lazy.Redraw(seed)
		lc.eager.Redraw(seed)
		lc.replant()
	}
}

// runLazyEager opens both handles on wordline wl at readSeed and runs
// steps random queries and redraws through them.
func runLazyEager(t testing.TB, c *Chip, wl int, readSeed uint64, r *mathx.Rand, target []float64, steps int) {
	t.Helper()
	lazy := c.BeginRead(wl, readSeed)
	defer lazy.Close()
	if lazy.vth0 == nil {
		t.Fatalf("BeginRead on a fault-free chip (CacheZ %v) took the eager path", c.Config().CacheZ)
	}
	eager := beginEager(c, wl, readSeed)
	defer eager.Close()
	lc := &lazyEagerCase{t: t, c: c, wl: wl, lazy: lazy, eager: eager, r: r, target: target}
	if r.Intn(3) == 0 {
		ys := make([]float64, 1+r.Intn(6))
		for k := range ys {
			if len(target) > 0 && r.Intn(2) == 0 {
				ys[k] = target[r.Intn(len(target))]
			} else {
				ys[k] = plantValues[r.Intn(len(plantValues))]
			}
		}
		lc.plant(ys)
	}
	for s := 0; s < steps; s++ {
		lc.step()
	}
}

// TestReadOpLazyMatchesEager is the differential test of the lazy-noise
// kernel: every query kind, interleaved with redraws, on TLC and QLC,
// fresh and aged, at both a word-aligned and a ragged cell count, with
// cached and hashed program offsets, must answer exactly as the eager
// handle does.
func TestReadOpLazyMatchesEager(t *testing.T) {
	for _, kind := range []Kind{TLC, QLC} {
		for _, cells := range []int{200, 256} {
			for _, aged := range []bool{false, true} {
				for _, cacheZ := range []bool{true, false} {
					testLazyMatchesEager(t, kind, cells, aged, cacheZ)
				}
			}
		}
	}
}

func testLazyMatchesEager(t *testing.T, kind Kind, cells int, aged, cacheZ bool) {
	pe, hours := 0, 0.0
	if aged {
		pe, hours = 5000, physics.YearHours
	}
	c := lazyChip(t, kind, cells, pe, hours, cacheZ)
	r := mathx.NewRand(uint64(cells) + uint64(pe))
	for trial := 0; trial < 6; trial++ {
		runLazyEager(t, c, r.Intn(4), r.Uint64(), r, nil, 60)
	}
	// Seeds whose noise for one cell comes from the extreme hashes
	// (|z| ≈ 8.3, the edge of every noise window), with queries aimed on
	// and one ulp around that cell's noiseless and noisy Vth and the
	// window edges.
	for _, h := range []uint64{0, math.MaxUint64, 1 << 11, math.MaxUint64 - 1<<11} {
		cell := r.Intn(cells)
		seed := extremeSeed(cell, h)
		noise := c.Model().ReadNoise(seed, cell)
		if bound := c.Model().Noise(seed).Bound(); math.Abs(noise) < 0.97*bound {
			t.Fatalf("seed %#x gives cell %d noise %v, not extreme (bound %v)", seed, cell, noise, bound)
		}
		wl := r.Intn(4)
		op := c.BeginRead(wl, seed)
		x0 := op.vth0[cell]
		win := noiseWindow(x0, op.bound)
		op.Close()
		var target []float64
		for _, y := range []float64{x0, x0 + noise, win.lo, win.hi} {
			target = append(target, y, math.Nextafter(y, math.Inf(1)), math.Nextafter(y, math.Inf(-1)))
		}
		// Short runs on fresh handles: the first queries meet the extreme
		// cell before anything has drawn its noise or redrawn it away.
		for run := 0; run < 40; run++ {
			runLazyEager(t, c, wl, seed, r, target, 3)
		}
	}
}

// FuzzReadOpLazyEager fuzzes the lazy/eager differential check over the
// read seed, query offsets, page, wear and retention. Bit 2 of page
// picks QLC and bit 3 hashed program offsets (CacheZ off).
func FuzzReadOpLazyEager(f *testing.F) {
	f.Add(uint64(1), 0.0, 10.0, uint8(2), uint16(0), 0.0)
	f.Add(uint64(7), -40.0, math.Inf(1), uint8(1), uint16(3000), 720.0)
	f.Add(uint64(99), math.NaN(), -1e9, uint8(3), uint16(5000), float64(physics.YearHours))
	f.Add(uint64(5), 3.0, -2.0, uint8(8|4|1), uint16(2000), 100.0)
	f.Add(uint64(12), -1.5, 4.0, uint8(8|2), uint16(5000), float64(physics.YearHours))
	f.Fuzz(func(t *testing.T, seed uint64, off1, off2 float64, page uint8, pe uint16, hours float64) {
		if !(hours >= 0 && hours <= 1e6) {
			hours = 0
		}
		kind := TLC
		if page&4 != 0 {
			kind = QLC
		}
		c := lazyChip(t, kind, 200+int(seed%57), int(pe), hours, page&8 == 0)
		r := mathx.NewRand(seed)
		wl := int(seed>>8) % 4
		p := int(page) % c.Coding().Bits()
		runLazyEager(t, c, wl, seed, r, []float64{off1, off2}, 30)

		// The fuzzed offsets applied directly, at every voltage of page p.
		lazy := c.BeginRead(wl, seed)
		defer lazy.Close()
		eager := beginEager(c, wl, seed)
		defer eager.Close()
		o := make(Offsets, c.Coding().NumVoltages())
		for i, v := range c.Coding().PageVoltages(p) {
			if i%2 == 0 {
				o[v-1] = off1
			} else {
				o[v-1] = off2
			}
			if !bitmapsEqual(lazy.Sense(v, off1), eager.Sense(v, off1)) {
				t.Fatalf("Sense(v=%d, %v) differs", v, off1)
			}
		}
		if !bitmapsEqual(lazy.ReadPageInto(nil, p, o), eager.ReadPageInto(nil, p, o)) {
			t.Fatalf("ReadPage(p=%d, %v) differs", p, o)
		}
	})
}

// pinFault is a FaultModel that pins cell 0 of every read to one
// voltage and records the read seeds it perturbed.
type pinFault struct {
	pin   float64
	seeds []uint64
}

func (f *pinFault) PerturbVth(wl int, readSeed uint64, vth []float64) {
	vth[0] = f.pin
	f.seeds = append(f.seeds, readSeed)
}

// A fault model perturbs the Vth vector after the sensing noise, so a
// chip with one attached must take the eager path: every read sees the
// perturbed vector whole. The pinned cell sits exactly on the read
// voltage and must sense as set on every draw; the lazy path would add
// noise on top of the pin and lose it on about half of them.
func TestReadOpFaultModelStaysEager(t *testing.T) {
	c := lazyChip(t, TLC, 256, 3000, 720, true)
	sv := c.Coding().SentinelVoltage()
	f := &pinFault{pin: c.Model().DefaultReadVoltage(sv)}
	c.SetFaults(f)
	op := c.BeginRead(1, 5)
	defer op.Close()
	if op.vth0 != nil {
		t.Fatal("BeginRead with a fault model attached took the lazy path")
	}
	for seed := uint64(5); seed < 25; seed++ {
		op.Redraw(seed)
		if !op.Sense(sv, 0).Get(0) {
			t.Fatalf("seed %d: the cell pinned on the read voltage sensed below it", seed)
		}
		want := c.vthAll(1, seed, nil, new(physics.WLEnv))
		for i, x := range op.vth {
			if x != want[i] {
				t.Fatalf("seed %d cell %d: Vth %v, eager %v", seed, i, x, want[i])
			}
		}
	}
	if len(f.seeds) < 20 || f.seeds[0] != 5 {
		t.Fatalf("PerturbVth saw read seeds %v, want one call per draw from 5", f.seeds)
	}
}

// A page's levels are NaN from its first NaN voltage on, even after an
// infinite one (math.Max(+Inf, NaN) is +Inf): a cell at +Inf reaches
// the +Inf level and not the NaN one, as the scan-and-stop reference
// reads it, on the lazy and the eager handle alike.
func TestReadPageNaNAfterInfiniteLevel(t *testing.T) {
	c := lazyChip(t, QLC, 200, 0, 0, true)
	msb := c.Coding().Bits() - 1
	pv := c.Coding().PageVoltages(msb)
	o := make(Offsets, c.Coding().NumVoltages())
	o[pv[1]-1], o[pv[3]-1] = math.Inf(1), math.NaN()
	lazy := c.BeginRead(0, 3)
	defer lazy.Close()
	eager := beginEager(c, 0, 3)
	defer eager.Close()
	lc := &lazyEagerCase{t: t, c: c, lazy: lazy, eager: eager, r: mathx.NewRand(3)}
	lc.plant([]float64{math.Inf(1), math.Inf(1), math.Inf(1)})
	want := refReadPage(c, eager.vth, msb, o)
	if got := eager.ReadPageInto(nil, msb, o); !bitmapsEqual(got, want) {
		t.Fatal("eager ReadPage differs from the scan-and-stop reference")
	}
	if got := lazy.ReadPageInto(nil, msb, o); !bitmapsEqual(got, want) {
		t.Fatal("lazy ReadPage differs from the scan-and-stop reference")
	}
}

package flash

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"sentinel3d/internal/mathx"
	"sentinel3d/internal/physics"
)

// fusedChip builds a lazy-noise chip of 4 wordlines: TLC or QLC, fresh
// or at 5000 P/E and a year of retention, with the sensing noise
// switched off when quiet is set (every noise window then has bound 0).
func fusedChip(t testing.TB, kind Kind, cells int, aged, quiet bool) *Chip {
	t.Helper()
	cfg := paperConfig(kind)
	cfg.Layers, cfg.WordlinesPerLayer, cfg.CellsPerWordline = 2, 2, cells
	p := physics.QLC()
	if kind == TLC {
		p = physics.TLC()
	}
	if quiet {
		p.ReadNoiseSigma = 0
	}
	c, err := newChip(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	r := mathx.NewRand(uint64(cells))
	for wl := 0; wl < cfg.WordlinesPerBlock(); wl++ {
		c.ProgramRandom(wl, r)
	}
	if aged {
		c.SetStress(physics.Stress{PECycles: 5000}.Aged(c.Model().P, physics.YearHours, physics.RoomTempC))
	}
	return c
}

// bucketEdge returns the smallest x in bucket k or above (k >= 1), by
// bisection over the float64 order keys.
func bucketEdge(g *grid, k int) float64 {
	lo, hi := keyNegInf, keyPosInf // bucket(lo) < k <= bucket(hi)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if g.bucket(keyFloat(mid)) >= k {
			hi = mid
		} else {
			lo = mid
		}
	}
	return keyFloat(hi)
}

// edgeValues lists Vth values on and one ulp either side of the plan's
// sharp edges: its thresholds, its noise windows' ends and some of its
// bucket boundaries, plus NaN, ±Inf and far values.
func edgeValues(p *SweepPlan, r *mathx.Rand) []float64 {
	ys := []float64{math.Inf(1), math.Inf(-1), 1e300, -1e300}
	for _, w := range p.wins {
		ys = append(ys, w.lo, w.hi)
	}
	for k := 0; k < 8 && p.m > 0; k++ {
		ys = append(ys, p.merged[r.Intn(p.m)])
	}
	if p.tab != nil {
		for k := 0; k < 8; k++ {
			ys = append(ys, bucketEdge(&p.grid, 1+r.Intn(p.nb+2)))
		}
	}
	var out []float64
	for _, y := range ys {
		out = append(out, y, math.Nextafter(y, math.Inf(1)), math.Nextafter(y, math.Inf(-1)))
	}
	return append(out, math.NaN(), -math.NaN())
}

// checkPlannedSweep sweeps wordline wl at readSeed over offs with a plan
// on a lazy handle (the fused pass) and compares it with the two-pass
// reference on a second lazy handle (noiseSweep, then sweepMulti) and
// with sweepOne per voltage on the eager handle's vector: the counts,
// and between the lazy handles the noised cells and their Vth, bit for
// bit. Before sweeping it plants the given Vth values on random cells
// of all three handles (the eager one with the cell's noise added) and
// draws the noise of some random cells, as an earlier query would. It
// reports whether the sweep took the fused path.
func checkPlannedSweep(t testing.TB, c *Chip, wl int, readSeed uint64, offs []float64, plant []float64, r *mathx.Rand) bool {
	t.Helper()
	plan := c.PlanSweep(offs)
	a := c.BeginRead(wl, readSeed)
	defer a.Close()
	b := c.BeginRead(wl, readSeed)
	defer b.Close()
	e := beginEager(c, wl, readSeed)
	defer e.Close()
	n := a.Cells()
	for _, y := range plant {
		i := r.Intn(n)
		a.vth0[i], a.vth[i], b.vth0[i], b.vth[i] = y, y, y, y
		e.vth[i] = y + a.noise.At(i)
		if a.noised.Get(i) {
			a.vth[i] = e.vth[i]
			b.vth[i] = e.vth[i]
		}
	}
	for k := r.Intn(n / 8); k > 0; k-- {
		i := r.Intn(n)
		a.noisy(i)
		b.noisy(i)
	}
	fused := plan.fuses(a)
	got := a.SweepPlanned(plan)

	bases := c.bases()
	b.noiseSweep(bases, offs)
	ups, downs := sweepMulti(bases, b.vth, b.states, c.Coding().States(), offs)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%v aged=%v sigma=%v wl=%d seed=%#x offs=%v: %s", c.Config().Kind,
			c.Stress().PECycles > 0, c.Model().P.ReadNoiseSigma, wl, readSeed, offs, fmt.Sprintf(format, args...))
	}
	for v := range bases {
		ou, od := sweepOne(bases[v], e.vth, e.states, v+1, offs)
		for k := range offs {
			if got[v][k] != ups[v][k]+downs[v][k] {
				fail("V%d offset %v: planned %d, two-pass %d+%d", v+1, offs[k], got[v][k], ups[v][k], downs[v][k])
			}
			if got[v][k] != ou[k]+od[k] {
				fail("V%d offset %v: planned %d, sweepOne on the eager vector %d+%d", v+1, offs[k], got[v][k], ou[k], od[k])
			}
		}
	}
	if !bitmapsEqual(a.noised, b.noised) {
		fail("the fused pass noised %d cells, the two-pass form %d", a.noised.popCount(), b.noised.popCount())
	}
	for i := range a.vth {
		if math.Float64bits(a.vth[i]) != math.Float64bits(b.vth[i]) {
			fail("cell %d: Vth %v after the fused pass, %v after the two-pass form", i, a.vth[i], b.vth[i])
		}
	}
	return fused
}

// fuzzGrid builds a sweep grid of 1+count%128 offsets from lo in steps
// of step, made finite and ascending.
func fuzzGrid(lo, step float64, count uint8) []float64 {
	if !(math.Abs(lo) <= 1e4) {
		lo = -60
	}
	if !(math.Abs(step) <= 100) {
		step = 1
	}
	offs := make([]float64, 1+int(count)%128)
	for k := range offs {
		offs[k] = lo + float64(k)*math.Abs(step)
	}
	sort.Float64s(offs)
	return offs
}

// FuzzSweepPlanned fuzzes the fused lazy sweep (SweepPlanned on a lazy
// handle) against the two-pass reference and sweepOne: kind, wear,
// noise on or off, the grid, the read seed and the planted Vth values.
// shape bit 0 selects QLC, bit 1 aged, bit 2 zero sensing noise.
func FuzzSweepPlanned(f *testing.F) {
	f.Add(uint64(1), uint8(0), -60.0, 1.0, uint8(90), uint8(20))  // TLC fresh, the training grid: unmerged windows
	f.Add(uint64(2), uint8(2), -60.0, 1.0, uint8(90), uint8(20))  // TLC aged
	f.Add(uint64(3), uint8(1), -60.0, 1.0, uint8(90), uint8(20))  // QLC fresh
	f.Add(uint64(4), uint8(3), -60.0, 1.0, uint8(90), uint8(20))  // QLC aged
	f.Add(uint64(5), uint8(0), -150.0, 3.0, uint8(100), uint8(9)) // TLC, windows merged
	f.Add(uint64(6), uint8(1), -150.0, 3.0, uint8(100), uint8(9)) // QLC, windows merged
	f.Add(uint64(7), uint8(2), -12.5, 0.0, uint8(0), uint8(30))   // a 1-offset grid
	f.Add(uint64(8), uint8(4), -60.0, 1.0, uint8(90), uint8(40))  // TLC, zero noise: bound 0
	f.Add(uint64(9), uint8(7), -20.0, 0.5, uint8(7), uint8(40))   // QLC aged, zero noise
	f.Add(uint64(10), uint8(0), -30.0, 0.0, uint8(12), uint8(5))  // all offsets equal
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8, lo, step float64, count, plants uint8) {
		kind := TLC
		if shape&1 != 0 {
			kind = QLC
		}
		c := fusedChip(t, kind, 300+int(seed%97), shape&2 != 0, shape&4 != 0)
		offs := fuzzGrid(lo, step, count)
		r := mathx.NewRand(seed)
		edges := edgeValues(c.PlanSweep(offs), r)
		plant := make([]float64, int(plants)%64)
		for k := range plant {
			plant[k] = edges[r.Intn(len(edges))]
		}
		checkPlannedSweep(t, c, int(seed>>8)%4, seed, offs, plant, r)
	})
}

// TestSweepPlannedMatchesTwoPass runs the fuzz seeds' shapes over more
// seeds, and requires most of them to take the fused path.
func TestSweepPlannedMatchesTwoPass(t *testing.T) {
	fused, runs := 0, 0
	for _, kind := range []Kind{TLC, QLC} {
		for shape := 0; shape < 4; shape++ {
			c := fusedChip(t, kind, 257, shape&1 != 0, shape&2 != 0)
			for _, g := range [][3]float64{{-60, 1, 90}, {-150, 3, 100}, {-12.5, 0, 0}, {-20, 0.5, 7}} {
				offs := fuzzGrid(g[0], g[1], uint8(g[2]))
				r := mathx.NewRand(uint64(runs))
				edges := edgeValues(c.PlanSweep(offs), r)
				for trial := 0; trial < 4; trial++ {
					plant := make([]float64, r.Intn(40))
					for k := range plant {
						plant[k] = edges[r.Intn(len(edges))]
					}
					if checkPlannedSweep(t, c, trial, r.Uint64(), offs, plant, r) {
						fused++
					}
					runs++
				}
			}
		}
	}
	if fused < runs*3/4 {
		t.Fatalf("only %d of %d sweeps took the fused path", fused, runs)
	}
}

// TestTrainingSweepFuses: the sentinel trainer's sweeps at quick scale
// (16384-cell TLC wordlines, the -60..30 grid in unit steps) must take
// the fused path on a lazy handle, and its first scan must settle most
// cells from the bucket table alone — fresh and worn — or the trainer
// would fall back to the two-pass form without any answer changing.
func TestTrainingSweepFuses(t *testing.T) {
	for _, aged := range []bool{false, true} {
		c := fusedChip(t, TLC, 16384, aged, false)
		plan := c.PlanSweep(benchGrid())
		op := c.BeginRead(1, 7)
		if !plan.fuses(op) {
			t.Fatalf("aged=%v: the training sweep does not take the fused path", aged)
		}
		exact := 0
		for _, x := range op.vth {
			k, bad := plan.index(x)
			if bad != 0 || plan.tab[k]&1 != 0 {
				exact++
			}
		}
		if share := float64(exact) / float64(op.Cells()); share > 0.3 {
			t.Fatalf("aged=%v: %.1f%% of the cells take the exact path", aged, 100*share)
		}
		op.Close()
	}
}

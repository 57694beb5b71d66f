package flash

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"sentinel3d/internal/mathx"
	"sentinel3d/internal/physics"
)

func agedQLC(t *testing.T) *Chip {
	t.Helper()
	c := MustNew(testConfig(QLC))
	rng := mathx.NewRand(3)
	c.ProgramRandom(0, rng)
	c.Cycle(1000)
	c.Age(physics.YearHours, physics.RoomTempC)
	return c
}

// sweepRows plans the all-voltage sweep over offs and runs it on a
// fresh handle of wordline wl at readSeed, returning the plan's buffers
// after.
func sweepRows(c *Chip, wl int, offs []float64, readSeed uint64) [][]int {
	plan := c.PlanSweep(offs)
	defer plan.release()
	op := c.BeginRead(wl, readSeed)
	defer op.Close()
	return op.SweepPlanned(plan)
}

// sweepVoltageAt is the per-voltage reference sweep of voltage v on
// wordline wl through a fresh handle.
func sweepVoltageAt(c *Chip, wl, v int, offs []float64, readSeed uint64) (ups, downs []int) {
	op := c.BeginRead(wl, readSeed)
	defer op.Close()
	return op.sweepVoltage(v, offs)
}

func TestSweepMatchesPointQueries(t *testing.T) {
	// Property: the per-voltage sweep must agree exactly with per-offset
	// VoltageErrors calls at the same read seed, and the planned
	// all-voltage sweep with its totals.
	c := agedQLC(t)
	offs := []float64{-30, -20, -10, -5, 0, 5, 10}
	rows := sweepRows(c, 0, offs, 99)
	for _, v := range []int{1, 2, 8, 15} {
		ups, downs := sweepVoltageAt(c, 0, v, offs, 99)
		for i, o := range offs {
			u, d := c.VoltageErrors(0, v, o, 99)
			if u != ups[i] || d != downs[i] {
				t.Fatalf("V%d offset %v: sweep (%d,%d) != point (%d,%d)",
					v, o, ups[i], downs[i], u, d)
			}
			if rows[v-1][i] != u+d {
				t.Fatalf("V%d offset %v: planned sweep %d != point %d", v, o, rows[v-1][i], u+d)
			}
		}
	}
}

func TestSweepMonotoneStructure(t *testing.T) {
	// As the offset increases, up errors grow and down errors shrink.
	c := agedQLC(t)
	offs := make([]float64, 0, 81)
	for o := -40.0; o <= 40; o++ {
		offs = append(offs, o)
	}
	ups, downs := sweepVoltageAt(c, 0, 8, offs, 5)
	for i := 1; i < len(offs); i++ {
		if ups[i] > ups[i-1] {
			t.Fatalf("up errors increased with offset at %v", offs[i])
		}
		if downs[i] < downs[i-1] {
			t.Fatalf("down errors decreased with offset at %v", offs[i])
		}
	}
}

func TestSweepVShape(t *testing.T) {
	// Total errors across the sweep form a valley with an interior
	// minimum below the edge values (paper Fig. 2).
	c := agedQLC(t)
	offs := make([]float64, 0, 121)
	for o := -60.0; o <= 60; o++ {
		offs = append(offs, o)
	}
	rows := sweepRows(c, 0, offs, 5)
	for v := 2; v <= 15; v++ {
		row := rows[v-1]
		minI, minV := 0, row[0]
		for i, e := range row {
			if e < minV {
				minI, minV = i, e
			}
		}
		if minI == 0 || minI == len(row)-1 {
			t.Fatalf("V%d minimum at sweep edge (offset %v)", v, offs[minI])
		}
		if row[0] <= minV || row[len(row)-1] <= minV {
			t.Fatalf("V%d has no valley: edges %d,%d min %d",
				v, row[0], row[len(row)-1], minV)
		}
	}
}

func TestSweepPanicsOnUnsortedOffsets(t *testing.T) {
	c := agedQLC(t)
	unsorted := []float64{0, -10, 10}
	for name, sweep := range map[string]func(){
		"planned":     func() { sweepRows(c, 0, unsorted, 1) },
		"per-voltage": func() { sweepVoltageAt(c, 0, 8, unsorted, 1) },
	} {
		if !panics(sweep) {
			t.Fatalf("%s sweep accepted unsorted offsets", name)
		}
	}
}

// TestSweepPlannedOtherChip checks SweepPlanned with a plan built on a
// second chip: it must plan the op's own chip anew and give the rows of
// that chip's own plan, on TLC and QLC, whether the second chip's
// thresholds match or not.
func TestSweepPlannedOtherChip(t *testing.T) {
	offs := benchGrid()
	for _, kind := range []Kind{TLC, QLC} {
		c := MustNew(testConfig(kind))
		c.ProgramRandom(0, mathx.NewRand(3))
		c.Cycle(1000)
		c.Age(physics.YearHours, physics.RoomTempC)
		for _, otherKind := range []Kind{TLC, QLC} {
			other := MustNew(testConfig(otherKind))
			op := c.BeginRead(0, 11)
			got := op.SweepPlanned(other.PlanSweep(offs))
			op.Close()
			want := sweepRows(c, 0, offs, 11)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%v with a %v plan: rows %v, own plan %v", kind, otherKind, got, want)
			}
		}
	}
}

// sweepMulti is the multi-boundary sweep of a given Vth vector, with no
// noise to draw — an eager handle's sweep: it plans bases over offs
// (noise windows of bound 0), places every cell and folds the
// histogram, returning per voltage (0-based index v = voltage-1) the
// ups/downs vectors sweepOne must produce for voltage v+1, bit for bit,
// for ascending offs and states < nstates.
func sweepMulti(bases, vths []float64, states []uint8, nstates int, offs []float64) (ups, downs [][]int) {
	if !sort.Float64sAreSorted(offs) {
		panic("flash: sweep offsets must ascend")
	}
	p := newSweepPlan(nil, bases, offs, nstates, 0)
	defer p.release()
	hist := intPool.get(nstates * (p.m + 1))
	clear(hist)
	p.place(vths, states, hist)
	ups = make([][]int, p.nv)
	downs = make([][]int, p.nv)
	p.fold(hist, func(v int, upAt, downAt []int) {
		u := make([]int, p.no)
		d := make([]int, p.no)
		suffix := 0
		for i := p.no - 1; i >= 0; i-- {
			suffix += upAt[i+1]
			u[i] = suffix
		}
		prefix := 0
		for i := 0; i < p.no; i++ {
			prefix += downAt[i]
			d[i] = prefix
		}
		ups[v], downs[v] = u, d
	})
	intPool.put(hist)
	return ups, downs
}

func crossCheckSweep(t *testing.T, bases, vths []float64, states []uint8, nstates int, offs []float64) {
	t.Helper()
	mups, mdowns := sweepMulti(bases, vths, states, nstates, offs)
	for v := range bases {
		u, d := sweepOne(bases[v], vths, states, v+1, offs)
		for i := range offs {
			if u[i] != mups[v][i] || d[i] != mdowns[v][i] {
				t.Fatalf("voltage %d offset %v: sweepMulti (%d,%d) != sweepOne (%d,%d)\nbases=%v\noffs=%v",
					v+1, offs[i], mups[v][i], mdowns[v][i], u[i], d[i], bases, offs)
			}
		}
	}
}

// sweepTrial generates one adversarial sweep instance from a seed and
// cross-checks the one-pass kernel against the reference. Threshold
// voltages are deliberately planted exactly on and one ulp around the
// decision boundaries, where a naive fl(base+off) comparison diverges
// from the reference's fl(vth-base) predicate.
func sweepTrial(t *testing.T, seed uint64) {
	r := mathx.NewRand(seed)
	nstates := 2 + r.Intn(15)
	nv := nstates - 1
	bases := make([]float64, nv)
	b := (r.Float64() - 0.5) * 20
	for v := range bases {
		b += r.Float64() * 3
		bases[v] = b
	}
	noffs := r.Intn(12)
	offs := make([]float64, noffs)
	o := (r.Float64() - 0.5) * 10
	for k := range offs {
		if r.Intn(4) > 0 { // leave duplicates with probability 1/4
			o += r.Float64() * 2
		}
		offs[k] = o
	}
	if noffs > 0 && r.Intn(8) == 0 {
		offs[0] = math.Inf(-1)
	}
	if noffs > 0 && r.Intn(8) == 0 {
		offs[noffs-1] = math.Inf(1)
	}
	ncells := 1 + r.Intn(300)
	vths := make([]float64, ncells)
	states := make([]uint8, ncells)
	for i := range vths {
		states[i] = uint8(r.Intn(nstates))
		switch r.Intn(8) {
		case 0, 1, 2: // bulk: random around a random boundary
			vths[i] = bases[r.Intn(nv)] + (r.Float64()-0.5)*8
		case 3: // exactly the decision threshold
			if noffs > 0 {
				vths[i] = sweepThreshold(offs[r.Intn(noffs)], bases[r.Intn(nv)])
			}
		case 4: // one ulp off the threshold
			if noffs > 0 {
				y := sweepThreshold(offs[r.Intn(noffs)], bases[r.Intn(nv)])
				dir := math.Inf(1)
				if r.Intn(2) == 0 {
					dir = math.Inf(-1)
				}
				vths[i] = math.Nextafter(y, dir)
			}
		case 5: // the naively rounded sum
			if noffs > 0 {
				vths[i] = bases[r.Intn(nv)] + offs[r.Intn(noffs)]
			}
		case 6:
			vths[i] = math.Inf(1 - 2*r.Intn(2))
		case 7:
			vths[i] = math.NaN()
		}
	}
	crossCheckSweep(t, bases, vths, states, nstates, offs)
}

func TestSweepMultiMatchesSweepOne(t *testing.T) {
	for seed := uint64(0); seed < 300; seed++ {
		sweepTrial(t, seed)
	}
}

func FuzzSweepMulti(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		sweepTrial(t, seed)
	})
}

func TestSweepOptimalBelowDefaultAfterRetention(t *testing.T) {
	// After heavy retention the optimal offset for mid boundaries is
	// negative.
	c := agedQLC(t)
	offs := make([]float64, 0, 101)
	for o := -60.0; o <= 40; o++ {
		offs = append(offs, o)
	}
	rows := sweepRows(c, 0, offs, 7)
	row := rows[7] // V8
	minI, minV := 0, row[0]
	for i, e := range row {
		if e < minV {
			minI, minV = i, e
		}
	}
	if offs[minI] >= 0 {
		t.Fatalf("V8 optimum %v not negative after 1-year retention", offs[minI])
	}
}

// sweepThreshold must return the exact minimum, and return at all, where
// fl(base+off) is near zero: there fl(y-base) stays put over some 2^62
// tiny y, which a walk of one ulp per step would never cross.
func TestSweepThresholdNearZero(t *testing.T) {
	cases := [][2]float64{ // {off, base}
		{131, -131}, {66.5, -66.5}, {-1661, 1661}, {0.1, -0.1},
		{1e-300, 0}, {0, 0}, {-0.0, 5}, {math.Inf(1), 3}, {math.Inf(-1), 3},
		{math.MaxFloat64, 1}, {-math.MaxFloat64, -1},
	}
	r := mathx.NewRand(3)
	for i := 0; i < 200; i++ {
		base := (r.Float64() - 0.5) * 4000
		off := -base + (r.Float64()-0.5)*math.Ldexp(1, -r.Intn(60))
		cases = append(cases, [2]float64{off, base})
	}
	for _, c := range cases {
		off, base := c[0], c[1]
		y := sweepThreshold(off, base)
		if !(off <= y-base) {
			t.Fatalf("sweepThreshold(%v, %v) = %v does not catch: fl(y-base) = %v", off, base, y, y-base)
		}
		if k := floatKey(y); k > keyNegInf {
			if prev := keyFloat(k - 1); off <= prev-base {
				t.Fatalf("sweepThreshold(%v, %v) = %v is not minimal: %v also catches", off, base, y, prev)
			}
		}
	}
}

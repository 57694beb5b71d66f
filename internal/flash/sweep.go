package flash

import (
	"math"
	"sort"

	"sentinel3d/internal/mathx"
)

// SweepVoltageErrors counts, for every offset in offs (which must be in
// ascending order), the up and down errors that read voltage v would
// produce, all derived from a single read operation (one shared sensing
// noise draw). This is the measurement primitive behind characterization
// sweeps: a real tester likewise re-reads a page across an offset grid.
//
// ups[i] + downs[i] is the error count of boundary v at offs[i].
func (c *Chip) SweepVoltageErrors(b, wl, v int, offs []float64, readSeed uint64) (ups, downs []int) {
	op := c.BeginRead(b, wl, readSeed)
	defer op.Close()
	return op.SweepVoltageErrors(v, offs)
}

// SweepVoltageErrors is the ReadOp form of Chip.SweepVoltageErrors,
// sharing the handle's threshold-voltage vector.
func (op *ReadOp) SweepVoltageErrors(v int, offs []float64) (ups, downs []int) {
	base := op.c.model.DefaultReadVoltage(v)
	op.noiseSweep([]float64{base}, offs)
	return sweepOne(base, op.vth, op.states, v, offs)
}

// noiseSweep draws the sensing noise of every cell that some offset of a
// sweep can compare differently with it than without it. Boundary base
// at offset off catches exactly the cells with Vth >= sweepThreshold(off,
// base), which ascends with off, so the cells in question lie inside the
// window [lo of the first offset's threshold, hi of the last one's]. The
// windows of all bases are merged and the cells placed in one scan.
// Offsets that are not NaN-free and ascending draw every cell's noise.
func (op *ReadOp) noiseSweep(bases, offs []float64) {
	if op.vth0 == nil || len(offs) == 0 {
		return
	}
	if !ascending(offs) {
		op.noiseAll()
		return
	}
	var winsArr [16]window
	wins := winsArr[:0]
	for _, base := range bases {
		w := window{
			lo: noiseWindow(sweepThreshold(offs[0], base), op.bound).lo,
			hi: noiseWindow(sweepThreshold(offs[len(offs)-1], base), op.bound).hi,
		}
		// Keep the windows ordered by lo (bases ascend, so this rarely
		// moves anything).
		wins = append(wins, w)
		for k := len(wins) - 1; k > 0 && wins[k-1].lo > wins[k].lo; k-- {
			wins[k-1], wins[k] = wins[k], wins[k-1]
		}
	}
	merged := wins[:1]
	for _, w := range wins[1:] {
		if last := &merged[len(merged)-1]; w.lo < last.hi {
			last.hi = math.Max(last.hi, w.hi)
		} else {
			merged = append(merged, w)
		}
	}
	for i, x := range op.vth {
		for _, w := range merged {
			if x <= w.lo {
				break
			}
			if x < w.hi {
				op.noisy(i)
				break
			}
		}
	}
}

// sweepOne classifies one boundary across an ascending offset grid given
// precomputed per-cell threshold voltages. It is the per-voltage
// reference kernel; sweepMulti must agree with it bit for bit.
func sweepOne(base float64, vths []float64, states []uint8, v int, offs []float64) (ups, downs []int) {
	if !sort.Float64sAreSorted(offs) {
		panic("flash: sweep offsets must ascend")
	}
	n := len(offs)
	ups = make([]int, n)
	downs = make([]int, n)
	// For a cell truly below the boundary (state <= v-1), an up error
	// occurs at offset x iff vth >= base+x, i.e. for all offsets <= rel
	// where rel = vth-base. For a cell truly above, a down error occurs
	// iff x > rel. Bucket cells by ub = #offsets <= rel, then prefix-sum.
	upAt := make([]int, n+1)
	downAt := make([]int, n+1)
	for i, vth := range vths {
		rel := vth - base
		ub := sort.SearchFloat64s(offs, rel)
		// SearchFloat64s returns the first index with offs[i] >= rel; we
		// need #offsets <= rel, so advance over equal values.
		for ub < n && offs[ub] <= rel {
			ub++
		}
		if int(states[i]) <= v-1 {
			upAt[ub]++
		} else {
			downAt[ub]++
		}
	}
	// ups[i] = # up-cells with ub > i; downs[i] = # down-cells with ub <= i.
	suffix := 0
	for i := n - 1; i >= 0; i-- {
		suffix += upAt[i+1]
		ups[i] = suffix
	}
	prefix := 0
	for i := 0; i < n; i++ {
		prefix += downAt[i]
		downs[i] = prefix
	}
	return ups, downs
}

// SweepAllVoltages classifies every read voltage across the offset grid
// from a single read operation and returns total error counts indexed as
// errs[v-1][i] for voltage v at offs[i].
func (c *Chip) SweepAllVoltages(b, wl int, offs []float64, readSeed uint64) [][]int {
	op := c.BeginRead(b, wl, readSeed)
	defer op.Close()
	return op.SweepAllVoltages(offs)
}

// SweepAllVoltages is the ReadOp form of Chip.SweepAllVoltages. It runs
// the one-pass multi-boundary kernel: one scan of the cells classifies
// every (voltage, offset) pair at once, instead of one scan per voltage.
func (op *ReadOp) SweepAllVoltages(offs []float64) [][]int {
	nv := op.c.coding.NumVoltages()
	out := make([][]int, nv)
	if offsHaveNaN(offs) {
		// The merged-threshold kernel does not model NaN offsets; keep the
		// reference semantics for such (pathological) grids.
		for v := 1; v <= nv; v++ {
			ups, downs := op.SweepVoltageErrors(v, offs)
			row := make([]int, len(offs))
			for i := range row {
				row[i] = ups[i] + downs[i]
			}
			out[v-1] = row
		}
		return out
	}
	var basesArr [16]float64
	var bases []float64
	if nv <= len(basesArr) {
		bases = basesArr[:nv]
	} else {
		bases = make([]float64, nv)
	}
	for v := 1; v <= nv; v++ {
		bases[v-1] = op.c.model.DefaultReadVoltage(v)
	}
	op.noiseSweep(bases, offs)
	ups, downs := sweepMulti(bases, op.vth, op.states, op.c.coding.States(), offs)
	for v := range out {
		row := make([]int, len(offs))
		for i := range row {
			row[i] = ups[v][i] + downs[v][i]
		}
		out[v] = row
	}
	return out
}

// ascending reports whether xs is NaN-free and non-decreasing.
func ascending(xs []float64) bool {
	for i, x := range xs {
		if x != x || (i > 0 && !(xs[i-1] <= x)) {
			return false
		}
	}
	return true
}

func offsHaveNaN(offs []float64) bool {
	for _, o := range offs {
		if math.IsNaN(o) {
			return true
		}
	}
	return false
}

// sweepThreshold returns the smallest threshold voltage y at which offset
// off catches a cell: the minimal y with off <= fl(y-base), the exact
// floating-point predicate sweepOne evaluates. Because fl(y-base) is
// monotone in y the minimum is well defined. It usually sits within a
// couple of ulps of fl(base+off), but not always: when base+off is near
// zero, fl(y-base) stays put across a huge run of tiny y. So the search
// runs over the totally ordered keys of the float64s (floatKey): steps
// of doubling length from fl(base+off) bracket the minimum, and a
// bisection pins it down, in at most about 130 probes for any input.
func sweepThreshold(off, base float64) float64 {
	ok := func(k uint64) bool { return off <= keyFloat(k)-base }
	lo, hi := keyNegInf, keyPosInf // ok(hi) always holds
	if ok(lo) {
		return math.Inf(-1)
	}
	if k := floatKey(base + off); ok(k) {
		hi = k
		for d := uint64(1); d <= 1<<62 && hi-lo > d; d *= 2 {
			if !ok(hi - d) {
				lo = hi - d
				break
			}
			hi -= d
		}
	} else {
		lo = k
		for d := uint64(1); d <= 1<<62 && hi-lo > d; d *= 2 {
			if ok(lo + d) {
				hi = lo + d
				break
			}
			lo += d
		}
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if ok(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return keyFloat(hi)
}

// floatKey maps a non-NaN float64 to a uint64 that orders like the float
// (with -0 just below +0); keyFloat is its inverse.
func floatKey(x float64) uint64 {
	u := math.Float64bits(x)
	return u ^ (uint64(int64(u)>>63) | 1<<63) // ^u if negative, else u | 1<<63
}

func keyFloat(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

var (
	keyNegInf = floatKey(math.Inf(-1))
	keyPosInf = floatKey(math.Inf(1))
)

// sweepMulti is the one-pass multi-boundary sweep: it buckets every cell
// across the full (voltage, offset) grid in a single scan and returns,
// per voltage (0-based index v = voltage-1), the same ups/downs vectors
// sweepOne would produce for voltage v+1 — bit-identical, for finite
// ascending offs and states < nstates.
//
// Method: each (voltage v, offset k) pair owns the exact threshold
// T[v][k] = sweepThreshold(offs[k], bases[v]); cell i satisfies pair
// (v, k) iff vth[i] >= T[v][k]. All nv*len(offs) thresholds are merged
// into one sorted grid, each cell is placed in the grid with a single
// upper-bound search, counts are histogrammed by (state, grid bin), and
// a two-pointer pass per voltage converts grid bins back into per-voltage
// offset counts. The final prefix/suffix sums match sweepOne exactly.
func sweepMulti(bases, vths []float64, states []uint8, nstates int, offs []float64) (ups, downs [][]int) {
	if !sort.Float64sAreSorted(offs) {
		panic("flash: sweep offsets must ascend")
	}
	nv, no := len(bases), len(offs)
	m := nv * no
	thr := vthPool.get(m)
	for v, base := range bases {
		tv := thr[v*no : (v+1)*no]
		for k, off := range offs {
			tv[k] = sweepThreshold(off, base)
		}
	}
	merged := vthPool.get(m)
	copy(merged, thr)
	sort.Float64s(merged)
	// mapv[v*(m+1)+b] = #{k : T[v][k] <= merged[b-1]} — how many of
	// voltage v's offsets a cell in grid bin b satisfies. Since every
	// T[v][k] is itself a merged value, T[v][k] <= vth iff
	// T[v][k] <= merged[bin(vth)-1].
	mapv := intPool.get(nv * (m + 1))
	for v := range bases {
		tv := thr[v*no : (v+1)*no]
		row := mapv[v*(m+1) : (v+1)*(m+1)]
		row[0] = 0
		j := 0
		for b := 1; b <= m; b++ {
			x := merged[b-1]
			for j < no && tv[j] <= x {
				j++
			}
			row[b] = j
		}
	}
	// One scan over the cells: bin by upper bound in the merged grid,
	// histogram by programmed state. A NaN vth lands past every threshold
	// (bin m), matching the reference path's SearchFloat64s semantics.
	//
	// The placement uses a bucketed index over [merged[0], merged[m-1]]:
	// bucketing x -> min(int((x-lo)*scale), nb-1) is monotone in x, so a
	// cell's upper bound lies inside its own bucket's contiguous run of
	// merged entries (everything in lower buckets is < vth, everything in
	// higher buckets is > vth), and the short in-bucket scan computes the
	// exact same bound the binary search would. Degenerate grids (zero or
	// non-finite span) fall back to the binary search.
	hist := intPool.get(nstates * (m + 1))
	clear(hist)
	var lo, hi, span float64
	if m > 0 {
		lo, hi = merged[0], merged[m-1]
		span = hi - lo
	}
	if span > 0 && !math.IsInf(span, 0) {
		nb := 4 * m
		scale := float64(nb) / span
		start := intPool.get(nb + 1)
		clear(start)
		for _, x := range merged {
			bkt := int((x - lo) * scale)
			if bkt > nb-1 {
				bkt = nb - 1
			}
			start[bkt+1]++
		}
		// Prefix-sum the counts: start[k] = first merged index whose
		// bucket is >= k; bucket k's run is merged[start[k]:start[k+1]].
		for k := 1; k <= nb; k++ {
			start[k] += start[k-1]
		}
		for i, vth := range vths {
			bin := m
			switch {
			case vth != vth: // NaN: past every threshold
			case vth < lo:
				bin = 0
			case vth >= hi: // every entry <= vth
			default:
				k := int((vth - lo) * scale)
				if k > nb-1 {
					k = nb - 1
				}
				j := start[k]
				for e := start[k+1]; j < e && merged[j] <= vth; j++ {
				}
				bin = j
			}
			hist[int(states[i])*(m+1)+bin]++
		}
		intPool.put(start)
	} else {
		for i, vth := range vths {
			bin := m
			if vth == vth {
				bin = mathx.UpperBound(merged, vth)
			}
			hist[int(states[i])*(m+1)+bin]++
		}
	}
	// Aggregate: for each voltage, fold the (state, bin) histogram into
	// the upAt/downAt buckets sweepOne builds, then prefix/suffix-sum
	// identically.
	upAt := intPool.get(no + 1)
	downAt := intPool.get(no + 1)
	ups = make([][]int, nv)
	downs = make([][]int, nv)
	for v := range bases {
		clear(upAt)
		clear(downAt)
		row := mapv[v*(m+1) : (v+1)*(m+1)]
		for s := 0; s < nstates; s++ {
			h := hist[s*(m+1) : (s+1)*(m+1)]
			dest := downAt
			if s <= v { // states at or below boundary v+1 err upward
				dest = upAt
			}
			for b, cnt := range h {
				if cnt != 0 {
					dest[row[b]] += cnt
				}
			}
		}
		u := make([]int, no)
		d := make([]int, no)
		suffix := 0
		for i := no - 1; i >= 0; i-- {
			suffix += upAt[i+1]
			u[i] = suffix
		}
		prefix := 0
		for i := 0; i < no; i++ {
			prefix += downAt[i]
			d[i] = prefix
		}
		ups[v] = u
		downs[v] = d
	}
	intPool.put(downAt)
	intPool.put(upAt)
	intPool.put(hist)
	intPool.put(mapv)
	vthPool.put(merged)
	vthPool.put(thr)
	return ups, downs
}

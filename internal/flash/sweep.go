package flash

import (
	"math"
	"sort"

	"sentinel3d/internal/mathx"
	"sentinel3d/internal/physics"
)

// SweepVoltageErrors counts, for every offset in offs (which must be in
// ascending order), the up and down errors that read voltage v would
// produce, all derived from a single read operation (one shared sensing
// noise draw). This is the measurement primitive behind characterization
// sweeps: a real tester likewise re-reads a page across an offset grid.
//
// ups[i] + downs[i] is the error count of boundary v at offs[i].
func (c *Chip) SweepVoltageErrors(wl, v int, offs []float64, readSeed uint64) (ups, downs []int) {
	op := c.BeginRead(wl, readSeed)
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
		wins = append(wins, window{
			lo: noiseWindow(sweepThreshold(offs[0], base), op.bound).lo,
			hi: noiseWindow(sweepThreshold(offs[len(offs)-1], base), op.bound).hi,
		})
	}
	merged := mergeWindows(wins)
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

// mergeWindows orders ws by lo and merges the ones that overlap, in
// place, returning the ascending disjoint windows (bases ascend, so the
// ordering rarely moves anything).
func mergeWindows(ws []window) []window {
	for i := 1; i < len(ws); i++ {
		for k := i; k > 0 && ws[k-1].lo > ws[k].lo; k-- {
			ws[k-1], ws[k] = ws[k], ws[k-1]
		}
	}
	merged := ws[:1]
	for _, w := range ws[1:] {
		if last := &merged[len(merged)-1]; w.lo < last.hi {
			last.hi = math.Max(last.hi, w.hi)
		} else {
			merged = append(merged, w)
		}
	}
	return merged
}

// sweepOne classifies one boundary across an ascending offset grid given
// precomputed per-cell threshold voltages. It is the per-voltage
// reference kernel; the planned multi-voltage sweep must agree with it
// bit for bit.
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
func (c *Chip) SweepAllVoltages(wl int, offs []float64, readSeed uint64) [][]int {
	op := c.BeginRead(wl, readSeed)
	defer op.Close()
	return op.SweepAllVoltages(offs)
}

// SweepAllVoltages is the ReadOp form of Chip.SweepAllVoltages. It runs
// the one-pass multi-boundary kernel: one scan of the cells classifies
// every (voltage, offset) pair at once, instead of one scan per voltage.
// It plans the sweep for this call alone; a caller that sweeps many
// wordlines over one grid plans once (Chip.PlanSweep) and calls
// SweepPlanned.
func (op *ReadOp) SweepAllVoltages(offs []float64) [][]int {
	p := newSweepPlan(op.c.model, op.c.bases(), offs, op.c.coding.States(), op.c.model.Noise(0).Bound())
	defer p.release()
	return op.sweep(p)
}

// SweepPlanned is SweepAllVoltages over the grid p was planned for, bit
// for bit. A plan from another chip is planned anew for this call.
func (op *ReadOp) SweepPlanned(p *SweepPlan) [][]int {
	if p.model != op.c.model {
		return op.SweepAllVoltages(p.offs)
	}
	return op.sweep(p)
}

// bases returns the default read voltages, indexed by voltage-1.
func (c *Chip) bases() []float64 {
	bases := make([]float64, c.coding.NumVoltages())
	for v := range bases {
		bases[v] = c.model.DefaultReadVoltage(v + 1)
	}
	return bases
}

func (op *ReadOp) sweep(p *SweepPlan) [][]int {
	out := make([][]int, p.nv)
	if p.nan {
		// The merged-threshold kernel does not model NaN offsets; keep the
		// reference semantics for such (pathological) grids.
		for v := 1; v <= p.nv; v++ {
			ups, downs := op.SweepVoltageErrors(v, p.offs)
			row := make([]int, p.no)
			for i := range row {
				row[i] = ups[i] + downs[i]
			}
			out[v-1] = row
		}
		return out
	}
	if !p.ascending {
		op.noiseAll()
		panic("flash: sweep offsets must ascend")
	}
	hist := intPool.get(p.nstates * (p.m + 1))
	clear(hist)
	if p.fuses(op) {
		p.countLazy(op, hist)
	} else {
		op.noiseSweep(p.bases, p.offs)
		p.place(op.vth, op.states, hist)
	}
	p.fold(hist, func(v int, upAt, downAt []int) {
		row := make([]int, p.no)
		up := 0
		for i := p.no - 1; i >= 0; i-- {
			up += upAt[i+1]
			row[i] = up
		}
		down := 0
		for i := range row {
			down += downAt[i]
			row[i] += down
		}
		out[v] = row
	})
	intPool.put(hist)
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

// SweepPlan is the part of SweepAllVoltages that depends only on the
// chip — its default read voltages, states and sensing-noise bound — and
// the offset grid, not on any cell: the thresholds, their sorted merge,
// the per-voltage maps and the bucket grid over the noise windows. A
// caller that sweeps many wordlines over one grid builds it once
// (Chip.PlanSweep); a plan is read-only once built, so any number of
// handles may sweep with it concurrently.
//
// Method: each (voltage v, offset k) pair owns the exact threshold
// T[v][k] = sweepThreshold(offs[k], bases[v]); cell i satisfies pair
// (v, k) iff vth[i] >= T[v][k]. All nv*len(offs) thresholds are merged
// into one sorted grid, each cell is placed in the grid by its upper
// bound, counts are histogrammed by (state, grid bin), and fold converts
// grid bins back into per-voltage offset counts.
//
// Placement uses a bucket grid: bucket(x) maps [glo, ghi] onto
// 1..nb+1 (bucket 0 below it, nb+2 above it), monotone in x, so a cell's
// upper bound lies inside its own bucket's contiguous run of merged
// thresholds — everything in lower buckets is below it, everything in
// higher buckets above — and a short in-bucket scan finds it. The grid
// spans the union of the noise windows of the sweep's bases (per base,
// from the lo of its first threshold's window to the hi of its last's),
// which holds every threshold. The fused lazy sweep (countLazy) rests on
// the same monotonicity: a bucket that no window touches holds no
// threshold, so all its cells share one bin, and none of them needs its
// noise.
type SweepPlan struct {
	model       *physics.Model // the chip planned for; nil in tests
	bases, offs []float64
	nstates     int
	nan         bool // offs holds a NaN: the per-voltage reference path
	ascending   bool // offs is NaN-free and non-decreasing
	nv, no, m   int
	thr         []float64 // thr[v*no+k] = T[v][k]
	merged      []float64 // thr, sorted
	// mapv[v*(m+1)+b] = #{k : T[v][k] <= merged[b-1]}: how many of
	// voltage v's offsets a cell in grid bin b satisfies. Since every
	// T[v][k] is itself a merged value, T[v][k] <= vth iff
	// T[v][k] <= merged[bin(vth)-1].
	mapv []int
	// bound is the sensing-noise bound the windows were drawn for, and
	// wins the merged windows, ascending and disjoint.
	bound float64
	wins  []window
	// The bucket grid; tab is nil when the windows admit none (an
	// infinite or degenerate span). tab[k] holds, for bucket k, the
	// index of its first threshold in merged shifted left by one, and in
	// bit 0 whether a window touches it; tab[nb+3] closes the last run.
	// wfirst[k] is the first window whose hi lies in bucket k or above.
	grid
	runMax int
	tab    []uint32
	wfirst []uint8
}

// PlanSweep plans SweepAllVoltages over the offset grid offs on this
// chip's wordlines, for SweepPlanned. offs is copied.
func (c *Chip) PlanSweep(offs []float64) *SweepPlan {
	return newSweepPlan(c.model, c.bases(), append([]float64(nil), offs...),
		c.coding.States(), c.model.Noise(0).Bound())
}

// newSweepPlan builds the plan of bases over offs for states below
// nstates, with noise windows of the given bound, from pooled buffers
// (see release).
func newSweepPlan(model *physics.Model, bases, offs []float64, nstates int, bound float64) *SweepPlan {
	p := &SweepPlan{model: model, bases: bases, offs: offs, nstates: nstates, bound: bound,
		nv: len(bases), no: len(offs)}
	p.nan = offsHaveNaN(offs)
	p.ascending = ascending(offs)
	if !p.ascending {
		return p
	}
	nv, no := p.nv, p.no
	m := nv * no
	p.m = m
	p.thr = vthPool.get(m)
	for v, base := range bases {
		tv := p.thr[v*no : (v+1)*no]
		for k, off := range offs {
			tv[k] = sweepThreshold(off, base)
		}
	}
	p.merged = vthPool.get(m + maxUnrolledRun)[:m]
	copy(p.merged, p.thr)
	sort.Float64s(p.merged)
	p.mapv = intPool.get(nv * (m + 1))
	for v := range bases {
		tv := p.thr[v*no : (v+1)*no]
		row := p.mapv[v*(m+1) : (v+1)*(m+1)]
		row[0] = 0
		j := 0
		for b := 1; b <= m; b++ {
			x := p.merged[b-1]
			for j < no && tv[j] <= x {
				j++
			}
			row[b] = j
		}
	}
	if m > 0 {
		p.planGrid()
	}
	return p
}

// planGrid merges the bases' noise windows and lays the bucket grid
// over them, when their span is finite and the scale stays finite.
func (p *SweepPlan) planGrid() {
	no := p.no
	for v := 0; v < p.nv; v++ {
		p.wins = append(p.wins, window{
			lo: noiseWindow(p.thr[v*no], p.bound).lo,
			hi: noiseWindow(p.thr[v*no+no-1], p.bound).hi,
		})
	}
	p.wins = mergeWindows(p.wins)
	g, ok := newGrid(p.wins[0].lo, p.wins[len(p.wins)-1].hi, 4*p.m)
	if !ok || p.m >= 1<<30 {
		return
	}
	p.grid = g
	p.tab = tabPool.get(g.buckets() + 1)
	clear(p.tab)
	for _, t := range p.merged {
		p.tab[p.bucket(t)+1] += 2
	}
	for k := 1; k < len(p.tab); k++ {
		p.runMax = max(p.runMax, int(p.tab[k]>>1))
		p.tab[k] += p.tab[k-1]
	}
	// Pad merged for bin's fixed-length count.
	p.merged = append(p.merged, nanPad[:min(p.runMax, maxUnrolledRun)]...)
	p.wfirst = statePool.get(g.buckets())
	j := 0
	for k := range p.wfirst {
		for j < len(p.wins) && p.bucket(p.wins[j].hi) < k {
			j++
		}
		p.wfirst[k] = uint8(j)
	}
	for _, w := range p.wins {
		for k := p.bucket(w.lo); k <= p.bucket(w.hi); k++ {
			p.tab[k] |= 1
		}
	}
}

// fuses reports whether sweeping op takes the fused lazy pass: op is
// lazy, the plan has a grid, and its windows were drawn for op's noise
// bound.
func (p *SweepPlan) fuses(op *ReadOp) bool {
	return op.vth0 != nil && p.tab != nil && op.bound == p.bound
}

// release returns the plan's pooled buffers; the plan must not be used
// afterwards.
func (p *SweepPlan) release() {
	intPool.put(p.mapv)
	vthPool.put(p.merged)
	vthPool.put(p.thr)
	tabPool.put(p.tab)
	statePool.put(p.wfirst)
	p.mapv, p.merged, p.thr, p.tab, p.wfirst = nil, nil, nil, nil, nil
}

// bin returns the number of thresholds at or below x: NaN lands past
// every threshold (bin m), matching the reference path's
// SearchFloat64s semantics. Only thresholds in x's bucket need a
// comparison; when no bucket holds more than runMax of them, bin makes
// exactly runMax, without a branch (merged is padded with NaN, which no
// x reaches, and the next bucket's thresholds lie above x).
func (p *SweepPlan) bin(x float64) int {
	if x != x {
		return p.m
	}
	k, bad := p.index(x)
	if bad != 0 {
		k = p.bucket(x)
	}
	j := int(p.tab[k] >> 1)
	if p.runMax <= maxUnrolledRun {
		run := p.merged[j : j+p.runMax]
		for _, t := range run {
			if t <= x {
				j++
			}
		}
		return j
	}
	for e := int(p.tab[k+1] >> 1); j < e && p.merged[j] <= x; j++ {
	}
	return j
}

// maxUnrolledRun bounds the thresholds per bucket for bin's branch-free
// count.
const maxUnrolledRun = 4

var nanPad = [maxUnrolledRun]float64{math.NaN(), math.NaN(), math.NaN(), math.NaN()}

// place histograms every cell by (state, bin) into hist, with no noise
// to draw: the eager handle's cells, or a lazy handle's after
// noiseSweep. Without a grid it falls back to a binary search.
func (p *SweepPlan) place(vths []float64, states []uint8, hist []int) {
	stride := p.m + 1
	if p.tab == nil {
		for i, x := range vths {
			bin := p.m
			if x == x {
				bin = mathx.UpperBound(p.merged, x)
			}
			hist[int(states[i])*stride+bin]++
		}
		return
	}
	for i, x := range vths {
		hist[int(states[i])*stride+p.bin(x)]++
	}
}

// countLazy is noiseSweep and place fused into one pass over a lazy
// handle's cells. A cell in a bucket no noise window touches lies
// outside every window, so it needs no noise, and its bin is its
// bucket's: the first scan counts it from the bucket table alone, with
// no branch per cell, and lists every other cell (in a touched bucket,
// or one grid.index cannot place: NaN, ±Inf). The second scan gives each listed cell the exact treatment:
// the window test on its current Vth, its noise when inside a window,
// and the bin of the result. The cells noised, their noise and the bins
// are those of noiseSweep followed by place.
func (p *SweepPlan) countLazy(op *ReadOp, hist []int) {
	vth := op.vth
	states := op.states[:len(vth)]
	stride := p.m + 1
	list := idxPool.get(len(vth))
	n := 0
	for i, x := range vth {
		k, bad := p.index(x)
		e := p.tab[k]
		hot := int(e&1) | int(bad&1)
		list[n] = int32(i)
		n += hot
		hist[int(states[i])*stride+int(e>>1)] += 1 - hot
	}
	for _, i := range list[:n] {
		x := vth[i]
		if x == x {
			for _, w := range p.wins[p.wfirst[p.bucket(x)]:] {
				if x <= w.lo {
					break
				}
				if x < w.hi {
					x = op.noisy(int(i))
					break
				}
			}
		}
		hist[int(states[i])*stride+p.bin(x)]++
	}
	idxPool.put(list)
}

// fold turns the (state, bin) histogram into, for each voltage v
// (0-based), the counts sweepOne buckets cells by — upAt[j] cells at or
// below the boundary (state <= v) and downAt[j] cells above it that
// satisfy exactly j of v's offsets — and hands them to emit. It sums
// each bin over the states once and accumulates the states at or below
// each voltage as v rises: O(nstates·m + nv·m) in all.
func (p *SweepPlan) fold(hist []int, emit func(v int, upAt, downAt []int)) {
	stride := p.m + 1
	tot := intPool.get(stride)
	acc := intPool.get(stride)
	clear(tot)
	clear(acc)
	for s := 0; s < p.nstates; s++ {
		for b, cnt := range hist[s*stride : (s+1)*stride] {
			tot[b] += cnt
		}
	}
	upAt := intPool.get(p.no + 1)
	downAt := intPool.get(p.no + 1)
	for v := 0; v < p.nv; v++ {
		if v < p.nstates {
			for b, cnt := range hist[v*stride : (v+1)*stride] {
				acc[b] += cnt
			}
		}
		clear(upAt)
		clear(downAt)
		for b, j := range p.mapv[v*stride : (v+1)*stride] {
			upAt[j] += acc[b]
			downAt[j] += tot[b] - acc[b]
		}
		emit(v, upAt, downAt)
	}
	intPool.put(downAt)
	intPool.put(upAt)
	intPool.put(acc)
	intPool.put(tot)
}

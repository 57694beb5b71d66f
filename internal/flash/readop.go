package flash

import (
	"math"
	"math/bits"

	"sentinel3d/internal/physics"
)

// ReadOp is the fused read kernel: one handle per read operation of a
// wordline. BeginRead materializes the wordline's per-cell threshold
// voltages exactly once — the expensive part of every read — and any
// number of Sense / ReadPage / VoltageErrors / sweep queries are then
// served from that vector without re-deriving it. The chip-level
// convenience methods (Chip.Sense, Chip.ReadPage, ...) are one-query
// wrappers around a ReadOp.
//
// Lazy sensing noise: on a chip without a fault model, BeginRead
// computes only each cell's noiseless Vth, and a query adds a cell's
// sensing noise — once, cached for the handle's later queries — only
// when the cell lies close enough to a voltage the query compares for
// the noise to change the outcome (see noiseWindow). Every answer is
// bit-identical to the eager handle's, which draws every cell's noise up
// front. Only a fault model keeps a read eager: its PerturbVth runs
// after the noise, on the whole vector.
//
// Lifetime and pooling: a ReadOp borrows its buffers (and the struct
// itself) from package-level pools; call Close when done — queries after
// Close are invalid. Close is idempotent. The ...Into query variants write
// into a caller-supplied bitmap when its capacity suffices, so a
// steady-state caller that recycles its buffers performs no allocations
// at all.
//
// Concurrency: a ReadOp is read-only with respect to the chip and may be
// used concurrently with other ReadOps (including on the same wordline),
// but a single ReadOp must not be shared between goroutines: its queries
// update its noise cache. The chip must not be mutated
// (program/erase/aging) while any ReadOp on it is open, exactly as for
// the chip's read methods.
type ReadOp struct {
	c        *Chip
	wl       int
	readSeed uint64
	// vth is the working threshold-voltage vector: every cell's final Vth
	// on an eager handle; on a lazy one, cell i holds its noisy Vth when
	// noised has bit i set and its noiseless vth0[i] otherwise.
	vth []float64
	// vth0, noised, noise and bound are the lazy handle's state (vth0 is
	// nil on an eager one): the noiseless Vth, the cells whose noise vth
	// holds, the read's noise stream and the bound on its magnitude.
	vth0   []float64
	noised Bitmap
	noise  physics.NoiseStream
	bound  float64
	states []uint8
	// truth caches the programmed bits of each page TrueBits was asked
	// for; they do not depend on the read seed.
	truth [4]Bitmap
	// env is scratch for the resolved wordline environment; its slices
	// are retained across pool cycles so BeginRead never allocates in
	// steady state.
	env physics.WLEnv
}

// BeginRead opens one read operation on wordline wl for one shared
// sensing-noise draw (readSeed) under the wordline's current stress,
// applying any attached fault model, and returns the handle serving
// queries against that snapshot. It panics if the wordline holds no
// data, like every read.
func (c *Chip) BeginRead(wl int, readSeed uint64) *ReadOp {
	c.checkAddr(wl)
	op, _ := readOpPool.Get().(*ReadOp)
	if op == nil {
		op = new(ReadOp)
	}
	w := c.wordline(wl)
	n := c.cfg.CellsPerWordline
	op.c, op.wl, op.readSeed, op.states = c, wl, readSeed, w.states
	if c.faults != nil {
		op.vth = c.vthAll(wl, readSeed, vthPool.get(n), &op.env)
		return op
	}
	op.vth0 = vthPool.get(n)
	c.vth0Into(wl, w, op.vth0, &op.env)
	op.vth = vthPool.get(n)
	copy(op.vth, op.vth0)
	op.noised = GetBitmap(n)
	op.noise = c.model.Noise(readSeed)
	op.bound = op.noise.Bound()
	return op
}

// Redraw gives the handle a fresh sensing-noise draw: afterwards every
// query answers exactly as on a handle from BeginRead(wl, readSeed).
// It is how a caller re-reads one wordline with new seeds (retry
// attempts, repeated measurements) without re-deriving its cells: a lazy
// handle restores only the cells whose noise it had drawn, an eager one
// recomputes its vector. Earlier query results are unaffected.
func (op *ReadOp) Redraw(readSeed uint64) {
	if readSeed == op.readSeed {
		return
	}
	op.readSeed = readSeed
	if op.vth0 == nil {
		op.vth = op.c.vthAll(op.wl, readSeed, op.vth, &op.env)
		return
	}
	for wi, word := range op.noised {
		for ; word != 0; word &= word - 1 {
			i := wi<<6 | bits.TrailingZeros64(word)
			op.vth[i] = op.vth0[i]
		}
		op.noised[wi] = 0
	}
	op.noise = op.c.model.Noise(readSeed)
}

// Close returns the handle's buffers to the pools. The ReadOp (and any
// slice previously returned by its queries into pooled buffers) must not
// be used afterwards. Close is safe to call twice.
func (op *ReadOp) Close() {
	if op.c == nil {
		return
	}
	vthPool.put(op.vth)
	vthPool.put(op.vth0)
	PutBitmap(op.noised)
	for p, bm := range op.truth {
		PutBitmap(bm)
		op.truth[p] = nil
	}
	op.c, op.vth, op.vth0, op.noised, op.states = nil, nil, nil, nil, nil
	readOpPool.Put(op)
}

// Wordline returns the wordline the handle reads.
func (op *ReadOp) Wordline() int { return op.wl }

// TrueBits returns the programmed (ground-truth) bits of page p of the
// handle's wordline. The bitmap belongs to the handle: it is built on
// the first call for p, shared by later ones, and valid until Close.
// The caller must not modify it.
func (op *ReadOp) TrueBits(p int) Bitmap {
	if op.truth[p] == nil {
		op.truth[p] = op.c.TrueBitsInto(GetBitmap(len(op.vth)), op.wl, p)
	}
	return op.truth[p]
}

// window is the open interval (lo, hi) of noiseless Vth in which a
// cell's sensing noise can change how it compares against one voltage:
// a cell at or below lo reads below the voltage, one at or above hi
// reads at or above it, whatever its noise.
type window struct{ lo, hi float64 }

// noWindow holds no Vth: the window on an eager handle, whose cells
// already carry their noise, and of a NaN voltage.
var noWindow = window{math.Inf(1), math.Inf(-1)}

// noiseWindow returns the window of read voltage rv under sensing noise
// of magnitude at most n >= 0. lo satisfies fl(lo+n) < rv and hi
// satisfies fl(hi-n) >= rv, each within a few ulps of rv∓n. Float
// addition rounds monotonically, so a cell with noiseless Vth x <= lo
// has fl(x+noise) <= fl(lo+n) < rv and x <= fl(lo+n) < rv: it reads below
// rv with or without its noise; symmetrically, x >= hi reads at or above
// rv either way. An infinite rv has an empty window, since every cell's
// Vth and noise are finite.
func noiseWindow(rv, n float64) window {
	if math.IsInf(rv, 0) {
		return window{rv, rv}
	}
	step := float64((math.Abs(rv)+n)*0x1p-52) + math.SmallestNonzeroFloat64
	lo, hi := rv-n, rv+n
	for d := step; !(lo+n < rv); d *= 2 {
		lo = rv - n - d
	}
	for d := step; !(hi-n >= rv); d *= 2 {
		hi = rv + n + d
	}
	return window{lo, hi}
}

// window returns the noise window of voltage rv on this handle. Every
// comparison with a NaN rv is false, noise or not, so NaN has none.
func (op *ReadOp) window(rv float64) window {
	if op.vth0 == nil || rv != rv {
		return noWindow
	}
	return noiseWindow(rv, op.bound)
}

// noisy returns cell i's Vth with its sensing noise, adding the noise to
// the working vector the first time. Only a lazy handle calls it.
func (op *ReadOp) noisy(i int) float64 {
	m := uint64(1) << (uint(i) & 63)
	if op.noised[i>>6]&m == 0 {
		op.noised[i>>6] |= m
		op.vth[i] += op.noise.At(i)
	}
	return op.vth[i]
}

// noiseAll draws the noise of every cell that lacks it, turning a lazy
// handle's vector into the eager one.
func (op *ReadOp) noiseAll() {
	if op.vth0 == nil {
		return
	}
	for i := range op.vth {
		op.noisy(i)
	}
}

// Cells returns the number of cells covered by the read.
func (op *ReadOp) Cells() int { return len(op.vth) }

// ensureBitmap returns dst resliced for n bits when its capacity
// suffices, or a fresh bitmap otherwise. The caller is expected to
// overwrite every word.
func ensureBitmap(dst Bitmap, n int) Bitmap {
	words := (n + 63) / 64
	if cap(dst) >= words {
		return dst[:words]
	}
	return NewBitmap(n)
}

// Sense applies the single read voltage v (1-based) at the given offset
// and returns a bitmap with bit i set when cell i's Vth is at or above
// the voltage. The caller owns the result.
func (op *ReadOp) Sense(v int, offset float64) Bitmap {
	return op.SenseInto(nil, v, offset)
}

// SenseInto is Sense writing into dst (reused when large enough).
func (op *ReadOp) SenseInto(dst Bitmap, v int, offset float64) Bitmap {
	rv := op.c.model.DefaultReadVoltage(v) + offset
	n := len(op.vth)
	dst = ensureBitmap(dst, n)
	near := Bitmap(wordPool.get(len(dst)))
	senseWords(dst, near, op.vth, rv, op.window(rv))
	for wi, m := range near {
		for ; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			dst[wi] &^= 1 << j
			if op.noisy(wi<<6|j) >= rv {
				dst[wi] |= 1 << j
			}
		}
	}
	wordPool.put(near)
	return dst
}

// keys returns the window as a range of geKey order keys: for every x,
// NaN included, lo < x < hi exactly when geKey(x)-start < n, unsigned.
// (A NaN's key lies above +Inf's or below -Inf's, outside any range.)
func (w window) keys() (start, n uint64) {
	klo, khi := geKey(w.lo), geKey(w.hi)
	if khi <= klo {
		return 0, 0
	}
	return klo + 1, khi - klo - 1
}

// below returns 1 when a < b and 0 otherwise, without a branch.
func below(a, b uint64) uint64 {
	_, borrow := bits.Sub64(a, b, 0)
	return borrow
}

// senseWords sets bit i of dst when vth[i] >= rv, and bit i of near when
// vth[i] lies inside win: a cell whose noise the caller has yet to
// settle. It makes no calls and takes no branch per cell (the window
// test is one unsigned range check on order keys), so the scan keeps
// its state in registers and never mispredicts.
func senseWords(dst, near Bitmap, vth []float64, rv float64, win window) {
	start, width := win.keys()
	n := len(vth)
	i := 0
	for wi := range dst {
		lim := i + 64
		if lim > n {
			lim = n
		}
		// Bits enter at the top and shift down, so the loop shifts only
		// by constants; a partial last word is aligned after it.
		var w, m uint64
		for ; i < lim; i++ {
			x := vth[i]
			w >>= 1
			if x >= rv {
				w |= 1 << 63
			}
			m = m>>1 | below(geKey(x)-start, width)<<63
		}
		if k := uint(lim & 63); k != 0 {
			w, m = w>>(64-k), m>>(64-k)
		}
		dst[wi], near[wi] = w, m
	}
}

// ReadPageInto senses page p with the given offsets and returns the
// readout as a bitmap (bit i = cell i's page bit), written into dst
// (reused when large enough, otherwise freshly allocated).
func (op *ReadOp) ReadPageInto(dst Bitmap, p int, o Offsets) Bitmap {
	coding := op.c.coding
	var lad ladder
	lad.set(op, coding.PageVoltages(p), o, uint64(coding.ReadBit(p, 0)))
	n := len(op.vth)
	dst = ensureBitmap(dst, n)
	near := Bitmap(wordPool.get(len(dst)))
	lad.pageWords(dst, near, op.vth)
	// The exact treatment of the cells the table could not settle: the
	// cell's rank, and when it lies outside the rank's settled interval
	// its noise, and the rank of the noisy Vth.
	for wi, m := range near {
		for ; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			k := scanKey(op.vth[wi<<6|j])
			g := &lad.rungs[lad.rank(k)&15]
			if g.near(k) != 0 {
				k = scanKey(op.noisy(wi<<6 | j))
				g = &lad.rungs[lad.rank(k)&15]
			}
			dst[wi] = dst[wi]&^(1<<j) | g.bit<<j
		}
	}
	wordPool.put(near)
	return dst
}

// ladder is one page read's voltages, as the scan of every cell sees
// them. A cell's page bit flips with each voltage it reaches, scanning
// the voltages in order and stopping at the first one above it. The
// levels are the running maximum of the voltages (NaN from the first
// NaN on, which no Vth reaches); they ascend, so that stopping point is
// simply the number of levels the cell reaches, its rank.
//
// A cell of rank r lies between levels r-1 and r, and the levels beyond
// those two are further still, so its noise can change its rank only
// inside one of their noise windows. Rank r's settled interval lies
// between those windows (unbounded where rank r lacks a neighbour): a
// cell of rank r inside it reads the same with or without its noise.
//
// Most cells lie far from every level and window. The scan looks them
// up in a table over a grid of buckets: a bucket that holds no level
// and meets no window holds cells of one rank, all outside every
// window, hence settled; tab gives their page bit. The cells of the
// other buckets get the exact treatment (see ReadPageInto).
type ladder struct {
	n     int
	key   [maxPageVoltages]uint64 // geKey of each level; MaxUint64 for NaN and past n
	rungs [16]rung                // indexed by rank & 15
	// tab[k] holds, for a cell in bucket k of g, its page bit in bit 0
	// and in bit 1 whether it needs the exact treatment. ok is false
	// when the levels and windows admit no grid (an infinite level);
	// then every cell takes the exact path.
	g   grid
	ok  bool
	tab [ladderBuckets + 3]uint8
}

// ladderBuckets is the grid's resolution: with the windows about
// 2·ReadNoiseSigma·mathx.GaussBound wide, the buckets a window only
// partly covers add a few percent to the cells that take the exact
// path.
const ladderBuckets = 1024

// rung is what the scan needs of one rank: its settled interval, as the
// scanKeys k with k-start < n (unsigned; empty when the neighbouring
// windows overlap, and every cell of the rank is near), and the page
// bit its cells read.
type rung struct{ start, n, bit uint64 }

// near returns 1 when scanKey k lies outside the settled interval and
// 0 otherwise, without a branch.
func (g *rung) near(k uint64) uint64 { return below(k-g.start, g.n) ^ 1 }

// maxPageVoltages bounds the voltages of one page: 2^(bits-1) for the
// Gray-coded TLC and QLC pages.
const maxPageVoltages = 8

// set builds the ladder of a page with voltages pv under offsets o,
// whose cells below every level read start.
func (l *ladder) set(op *ReadOp, pv []int, o Offsets, start uint64) {
	if len(pv) > maxPageVoltages {
		panic("flash: page with more than 8 read voltages")
	}
	l.n = len(pv)
	for k := range l.key {
		l.key[k] = math.MaxUint64
	}
	// Rank 0 starts at key 0, a NaN's scanKey: a NaN reaches no level
	// and its noise cannot move it, so it is settled at rank 0.
	l.rungs[0].start = 0
	var levels [maxPageVoltages]float64
	var wins [maxPageVoltages]window
	reached := 0 // levels before the first NaN
	var rv float64
	for k, v := range pv {
		// math.Max(+Inf, NaN) is +Inf, so a NaN is carried on by hand.
		if vk := op.c.voltage(v, o); k == 0 || vk != vk {
			rv = vk
		} else if rv == rv {
			rv = math.Max(rv, vk)
		}
		l.key[k] = geKey(rv)
		if rv != rv {
			l.key[k] = math.MaxUint64
		} else {
			reached++
		}
		levels[k], wins[k] = rv, op.window(rv)
		l.rungs[k].n = geKey(wins[k].lo) // the interval's last key, for now
		l.rungs[k+1].start = geKey(wins[k].hi)
	}
	l.rungs[l.n].n = keyPosInf
	for r := 0; r <= l.n; r++ {
		g := &l.rungs[r]
		if g.n < g.start {
			g.n = 0
		} else {
			g.n = g.n - g.start + 1
		}
		g.bit = start ^ uint64(r&1)
	}
	l.setTable(levels[:reached], wins[:reached])
}

// setTable lays the grid over the levels and their windows and fills
// the table.
func (l *ladder) setTable(levels []float64, wins []window) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for k, lv := range levels {
		lo = math.Min(lo, math.Min(lv, wins[k].lo))
		hi = math.Max(hi, math.Max(lv, wins[k].hi))
	}
	if l.g, l.ok = newGrid(lo, hi, ladderBuckets); !l.ok {
		return
	}
	const exact = 2
	var at [maxPageVoltages]int // each level's bucket
	for k, lv := range levels {
		at[k] = l.g.bucket(lv)
		l.tab[at[k]] = exact
		if w := wins[k]; w.lo < w.hi {
			for b := l.g.bucket(w.lo); b <= l.g.bucket(w.hi); b++ {
				l.tab[b] = exact
			}
		}
	}
	// A cell in a bucket above the one of level k reaches level k.
	r := 0
	for b := range l.tab {
		for r < len(levels) && at[r] < b {
			r++
		}
		l.tab[b] |= uint8(l.rungs[r].bit)
	}
}

// rank returns how many levels the cell of scanKey k reaches, counted
// without a branch: the keys past the last level are MaxUint64, which
// no scanKey reaches.
func (l *ladder) rank(k uint64) uint64 {
	var r uint64
	for _, lk := range l.key {
		r += atLeast(k, lk)
	}
	return r
}

// geKey returns a key for branch-free >= tests: for non-NaN x and y,
// x >= y exactly when atLeast(geKey(x), geKey(y)) is 1. Adding 0 turns
// -0 into +0, which floatKey orders below it. NaN has no such key:
// callers keep it apart.
func geKey(x float64) uint64 { return floatKey(x + 0) }

// scanKey is geKey with NaN mapped to 0, below every other key: a NaN
// cell then reaches no level, as no comparison with NaN holds. It
// compiles to conditional moves.
func scanKey(x float64) uint64 {
	k := geKey(x)
	if x != x {
		k = 0
	}
	return k
}

// atLeast returns 1 when a >= b and 0 otherwise, without a branch.
func atLeast(a, b uint64) uint64 {
	_, borrow := bits.Sub64(a, b, 0)
	return borrow ^ 1
}

// pageWords sets bit i of dst to cell i's page bit from the table, and
// bit i of near when cell i needs the exact treatment instead: every
// cell when there is no grid. A NaN lands in bucket 0, whose rank-0
// cells are settled. The scan makes no calls and takes no branch that
// depends on the cell.
func (l *ladder) pageWords(dst, near Bitmap, vth []float64) {
	n := len(vth)
	if !l.ok {
		for wi := range dst {
			dst[wi], near[wi] = 0, ^uint64(0)
		}
		if k := uint(n & 63); k != 0 {
			near[len(near)-1] = 1<<k - 1
		}
		return
	}
	i := 0
	for wi := range dst {
		lim := i + 64
		if lim > n {
			lim = n
		}
		w, m := l.word(vth[i:lim])
		i = lim
		if k := uint(lim & 63); k != 0 {
			w, m = w>>(64-k), m>>(64-k)
		}
		dst[wi], near[wi] = w, m
	}
}

// word scans up to 64 cells: their bits enter w and m at the top and
// shift down, as in senseWords.
func (l *ladder) word(cells []float64) (w, m uint64) {
	var bad uint64
	for _, x := range cells {
		k, b := l.g.index(x)
		bad |= b
		e := uint64(l.tab[k])
		w = w>>1 | e<<63
		m = m>>1 | e>>1<<63
	}
	if bad == 0 {
		return w, m
	}
	w, m = 0, 0
	for _, x := range cells {
		e := uint64(l.tab[l.g.bucket(x)])
		w = w>>1 | e<<63
		m = m>>1 | e>>1<<63
	}
	return w, m
}

// VoltageErrors counts the up and down errors read voltage v (1-based)
// introduces at the given offset: up errors are cells programmed below
// the boundary (state <= v-1) but sensed above it; down errors the
// converse.
func (op *ReadOp) VoltageErrors(v int, offset float64) (up, down int) {
	rv := op.c.model.DefaultReadVoltage(v) + offset
	win := op.window(rv)
	for i, x := range op.vth {
		if x > win.lo && x < win.hi {
			x = op.noisy(i)
		}
		trueBelow := int(op.states[i]) <= v-1
		readBelow := x < rv
		if trueBelow && !readBelow {
			up++
		} else if !trueBelow && readBelow {
			down++
		}
	}
	return up, down
}

// CountPageErrors reads page p with offsets o and counts bit errors
// against the programmed data, using only pooled scratch.
func (op *ReadOp) CountPageErrors(p int, o Offsets) int {
	n := len(op.vth)
	read := op.ReadPageInto(GetBitmap(n), p, o)
	truth := op.c.TrueBitsInto(GetBitmap(n), op.wl, p)
	errs := read.XorCount(truth)
	PutBitmap(truth)
	PutBitmap(read)
	return errs
}

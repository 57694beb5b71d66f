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
// Lazy sensing noise: on a chip with cached program offsets (CacheZ) and
// no fault model, BeginRead computes only each cell's noiseless Vth, and
// a query adds a cell's sensing noise — once, cached for the handle's
// later queries — only when the cell lies close enough to a voltage the
// query compares for the noise to change the outcome (see noiseWindow).
// Every answer is bit-identical to the eager handle's, which draws every
// cell's noise up front; that one serves chips with a fault model (its
// PerturbVth runs after the noise) and chips without CacheZ.
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
	b, wl    int
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
	// env is scratch for the resolved wordline environment; its slices
	// are retained across pool cycles so BeginRead never allocates in
	// steady state.
	env physics.WLEnv
}

// BeginRead opens one read operation on wordline (b, wl) for one shared
// sensing-noise draw (readSeed) under the wordline's current stress,
// applying any attached fault model, and returns the handle serving
// queries against that snapshot. It panics if the wordline holds no
// data, like every read.
func (c *Chip) BeginRead(b, wl int, readSeed uint64) *ReadOp {
	c.checkAddr(b, wl)
	op, _ := readOpPool.Get().(*ReadOp)
	if op == nil {
		op = new(ReadOp)
	}
	w := c.wordline(b, wl)
	n := c.cfg.CellsPerWordline
	op.c, op.b, op.wl, op.readSeed, op.states = c, b, wl, readSeed, w.states
	if w.zcache == nil || c.faults != nil {
		op.vth = c.vthAll(b, wl, readSeed, vthPool.get(n), &op.env)
		return op
	}
	op.vth0 = vthPool.get(n)
	c.vth0Into(b, wl, w, op.vth0, &op.env)
	op.vth = vthPool.get(n)
	copy(op.vth, op.vth0)
	op.noised = GetBitmap(n)
	op.noise = c.model.Noise(readSeed)
	op.bound = op.noise.Bound()
	return op
}

// Redraw gives the handle a fresh sensing-noise draw: afterwards every
// query answers exactly as on a handle from BeginRead(b, wl, readSeed).
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
		op.vth = op.c.vthAll(op.b, op.wl, readSeed, op.vth, &op.env)
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
	op.c, op.vth, op.vth0, op.noised, op.states = nil, nil, nil, nil, nil
	readOpPool.Put(op)
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

// senseWords sets bit i of dst when vth[i] >= rv, and bit i of near when
// vth[i] lies inside win: a cell whose noise the caller has yet to
// settle. It makes no calls, so the scan keeps its state in registers.
func senseWords(dst, near Bitmap, vth []float64, rv float64, win window) {
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
			m >>= 1
			if x > win.lo && x < win.hi {
				m |= 1 << 63
			}
		}
		if k := uint(lim & 63); k != 0 {
			w, m = w>>(64-k), m>>(64-k)
		}
		dst[wi], near[wi] = w, m
	}
}

// ReadPage senses page p with the given offsets and returns the readout
// as a bitmap (bit i = cell i's page bit). The caller owns the result.
func (op *ReadOp) ReadPage(p int, o Offsets) Bitmap {
	return op.ReadPageInto(nil, p, o)
}

// ReadPageInto is ReadPage writing into dst (reused when large enough).
func (op *ReadOp) ReadPageInto(dst Bitmap, p int, o Offsets) Bitmap {
	coding := op.c.coding
	var lad ladder
	lad.set(op, coding.PageVoltages(p), o)
	start := uint64(coding.ReadBit(p, 0))
	n := len(op.vth)
	dst = ensureBitmap(dst, n)
	near := Bitmap(wordPool.get(len(dst)))
	lad.pageWords(dst, near, op.vth, start)
	for wi, m := range near {
		for ; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			bit := start ^ uint64(lad.rank(op.noisy(wi<<6|j))&1)
			dst[wi] = dst[wi]&^(1<<j) | bit<<j
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
// inside one of their noise windows. settled[r] is the interval between
// those windows (±Inf where rank r lacks a neighbour): a cell of rank r
// inside it reads the same with or without its noise.
type ladder struct {
	n       int
	key     [maxPageVoltages]uint64      // geKey of each level; MaxUint64 for NaN
	settled [16]struct{ lo, hi float64 } // indexed by rank & 15
}

// maxPageVoltages bounds the voltages of one page: 2^(bits-1) for the
// Gray-coded TLC and QLC pages.
const maxPageVoltages = 8

func (l *ladder) set(op *ReadOp, pv []int, o Offsets) {
	if len(pv) > maxPageVoltages {
		panic("flash: page with more than 8 read voltages")
	}
	l.n = len(pv)
	l.settled[0].lo = math.Inf(-1)
	var rv float64
	for k, v := range pv {
		if k == 0 {
			rv = op.c.voltage(v, o)
		} else {
			rv = math.Max(rv, op.c.voltage(v, o))
		}
		l.key[k] = geKey(rv)
		if rv != rv {
			l.key[k] = math.MaxUint64
		}
		win := op.window(rv)
		l.settled[k].hi, l.settled[k+1].lo = win.lo, win.hi
	}
	l.settled[l.n].hi = math.Inf(1)
}

// rank returns how many levels x reaches, counted without a branch per
// level.
func (l *ladder) rank(x float64) int {
	if x != x {
		return 0
	}
	k := geKey(x)
	var r uint64
	for _, lk := range l.key[:l.n] {
		r += atLeast(k, lk)
	}
	return int(r)
}

// geKey returns a key for branch-free >= tests: for non-NaN x and y,
// x >= y exactly when atLeast(geKey(x), geKey(y)) is 1. Adding 0 turns
// -0 into +0, which floatKey orders below it. NaN has no such key:
// callers keep it apart.
func geKey(x float64) uint64 { return floatKey(x + 0) }

// atLeast returns 1 when a >= b and 0 otherwise, without a branch.
func atLeast(a, b uint64) uint64 {
	_, borrow := bits.Sub64(a, b, 0)
	return borrow ^ 1
}

// pageWords sets bit i of dst to cell i's page bit, start flipped once
// per level vth[i] reaches, and bit i of near when the cell lies outside
// its rank's settled interval: a cell whose noise the caller has yet to
// settle. It makes no calls, so the scan keeps its state in registers.
func (l *ladder) pageWords(dst, near Bitmap, vth []float64, start uint64) {
	n := len(vth)
	i := 0
	for wi := range dst {
		lim := i + 64
		if lim > n {
			lim = n
		}
		var w, m uint64 // filled from the top, as in senseWords
		for ; i < lim; i++ {
			x := vth[i]
			r := l.rank(x)
			m >>= 1
			if s := &l.settled[r&15]; x < s.lo || x > s.hi {
				m |= 1 << 63
			}
			w = w>>1 | (start^uint64(r))<<63
		}
		if k := uint(lim & 63); k != 0 {
			w, m = w>>(64-k), m>>(64-k)
		}
		dst[wi], near[wi] = w, m
	}
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
	truth := op.c.TrueBitsInto(GetBitmap(n), op.b, op.wl, p)
	errs := read.XorCount(truth)
	PutBitmap(truth)
	PutBitmap(read)
	return errs
}

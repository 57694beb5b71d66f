package flash

import (
	"fmt"
	"math"

	"sentinel3d/internal/mathx"
	"sentinel3d/internal/physics"
)

// FaultModel is the hook through which a fault-injection layer (see
// internal/fault) perturbs chip behaviour. Implementations must be
// deterministic pure functions of their own seed and the arguments —
// never of call order — so that faulted experiments stay byte-identical
// at any worker count. They must also be safe for concurrent use: reads
// of distinct wordlines call PerturbVth concurrently.
type FaultModel interface {
	// PerturbVth mutates the freshly computed threshold-voltage vector of
	// one read operation on wordline wl. readSeed identifies the read
	// operation, exactly as for sensing noise.
	PerturbVth(wl int, readSeed uint64, vth []float64)
}

// Config describes the geometry and technology of a simulated chip.
type Config struct {
	// Kind selects TLC or QLC.
	Kind Kind

	// Layers, WordlinesPerLayer and CellsPerWordline set the geometry of
	// the chip's one block, the unit the paper characterizes and reads.
	// The paper's chips have 64 layers; wordline w belongs to layer
	// w % Layers (wordlines of a layer are interleaved across the block,
	// as in multi-string 3D NAND).
	Layers            int
	WordlinesPerLayer int
	CellsPerWordline  int

	// Seed determines the chip instance (its frozen process variation).
	Seed uint64

	// CacheZ caches each wordline's frozen program offsets z as float32
	// at program time (4 bytes/cell), so a read takes them from memory
	// instead of re-hashing them. It also sets z's precision: without
	// the cache every read hashes z anew at full float64 precision, so
	// chips that differ only in CacheZ read the same wordline with z
	// differing in its last bits. Reads take the same path either way.
	CacheZ bool
}

// oobFraction is the fraction of each wordline reserved as the
// out-of-band area (ECC parity + spare): the paper's example page is
// 18592 bytes with 2208 bytes OOB, i.e. ~11.9%.
const oobFraction = 0.119

// WordlinesPerBlock returns Layers * WordlinesPerLayer.
func (c Config) WordlinesPerBlock() int { return c.Layers * c.WordlinesPerLayer }

// UserCells returns the number of cells available for user data on a
// wordline (the head of the wordline); the remaining OOB cells form the
// tail.
func (c Config) UserCells() int {
	return c.CellsPerWordline - c.OOBCells()
}

// OOBCells returns the number of OOB cells on a wordline.
func (c Config) OOBCells() int {
	return int(float64(c.CellsPerWordline) * oobFraction)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Layers <= 0 || c.WordlinesPerLayer <= 0 {
		return fmt.Errorf("flash: non-positive geometry %+v", c)
	}
	if c.CellsPerWordline < 64 {
		return fmt.Errorf("flash: CellsPerWordline %d too small", c.CellsPerWordline)
	}
	return nil
}

// Chip is one simulated flash chip instance.
//
// Concurrency: a Chip has no internal locking; its safety contract is the
// usual "reads may run concurrently, writes may not". Concretely:
//
//   - All read paths (BeginRead and every ReadOp query, plus the
//     one-shot wrappers Sense, ReadPage, ReadStates, VoltageErrors,
//     IsProgrammed, Stress, and the accessors) only
//     read chip state — the physics model is stateless (every frozen
//     offset is re-derived by hashing) — so any number may run
//     concurrently with each other on any wordlines. The pooled scratch
//     buffers behind them (vth vectors, bitmaps, sweep histograms) are
//     handed out per call through sync.Pools, never shared: concurrent
//     readers each hold private buffers. A single *ReadOp*, however, is
//     not for concurrent use — one goroutine per handle.
//   - ProgramStates writes only its own wordline's slot (including the
//     zcache fill when CacheZ is set), so concurrent programs of
//     *distinct* wordlines are safe, as are concurrent reads of other,
//     already-programmed wordlines.
//   - Chip stress mutations (Cycle, Age, SetStress, SetReadTemperature)
//     write the shared stress state and must not run concurrently with
//     anything else touching the chip. SetFaults swaps the
//     chip-wide fault model and must not run concurrently with anything
//     at all.
//
// The experiment drivers in internal/experiments rely on exactly this:
// they fan out per-wordline work (programming, then read-only sweeps)
// and perform all aging from the coordinating goroutine.
type Chip struct {
	cfg    Config
	coding *Coding
	model  *physics.Model
	stress physics.Stress
	wls    []wlState
	faults FaultModel
	// pos[i] is cell i's position along the wordline, (i+0.5)/n - 0.5,
	// the factor of the intra-wordline gradient in each cell's Vth
	// (vth0Into).
	pos []float64
}

type wlState struct {
	programmed bool
	epoch      uint64
	states     []uint8
	zcache     []float32
}

// New builds a chip with the physics parameters of cfg.Kind. The same
// Config always yields an identical chip.
func New(cfg Config) (*Chip, error) {
	p := physics.QLC()
	if cfg.Kind == TLC {
		p = physics.TLC()
	}
	return newChip(cfg, p)
}

// newChip is New with the physics parameters given, whose Bits must
// match cfg.Kind.
func newChip(cfg Config, p physics.Params) (*Chip, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	model, err := physics.NewModel(p, cfg.Seed)
	if err != nil {
		return nil, err
	}
	c := &Chip{
		cfg:    cfg,
		coding: NewCoding(p.Bits),
		model:  model,
		wls:    make([]wlState, cfg.WordlinesPerBlock()),
		pos:    make([]float64, cfg.CellsPerWordline),
	}
	nf := float64(cfg.CellsPerWordline)
	for i := range c.pos {
		c.pos[i] = (float64(i)+0.5)/nf - 0.5
	}
	return c, nil
}

// MustNew is New but panics on error; for tests and examples.
func MustNew(cfg Config) *Chip {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the chip configuration.
func (c *Chip) Config() Config { return c.cfg }

// Coding returns the page coding tables.
func (c *Chip) Coding() *Coding { return c.coding }

// Model exposes the underlying physics model (used by characterization and
// oracle policies; production FTL code would not have this).
func (c *Chip) Model() *physics.Model { return c.model }

// SetFaults attaches (or, with nil, detaches) a fault model. It is a
// chip-wide mutation: it must not run concurrently with any other chip
// operation. Attach faults before fanning out reads.
func (c *Chip) SetFaults(f FaultModel) { c.faults = f }

// LayerOf returns the layer of wordline wl.
func (c *Chip) LayerOf(wl int) int { return wl % c.cfg.Layers }

func (c *Chip) checkAddr(wl int) {
	if wl < 0 || wl >= c.cfg.WordlinesPerBlock() {
		panic(fmt.Sprintf("flash: wordline %d out of range [0,%d)",
			wl, c.cfg.WordlinesPerBlock()))
	}
}

// Stress returns the chip's current stress state.
func (c *Chip) Stress() physics.Stress { return c.stress }

// Cycle adds n P/E cycles of pure wear to the chip without changing its
// contents — the standard way test platforms pre-condition blocks before
// a characterization run.
func (c *Chip) Cycle(n int) { c.stress = c.stress.Cycled(n) }

// Age adds retention time at tempC to the chip. Time at elevated
// temperature is Arrhenius-accelerated, exactly like the paper's baking
// procedure.
func (c *Chip) Age(hours, tempC float64) {
	c.stress = c.stress.Aged(c.model.P, hours, tempC)
}

// SetStress forces the chip's stress state directly. Characterization
// benches use this to jump between stress points; runtime code never
// would.
func (c *Chip) SetStress(st physics.Stress) { c.stress = st }

// SetReadTemperature sets the ambient temperature for subsequent reads.
// Reading away from the programming temperature shifts the
// states (cross-temperature effect); the paper's Section III-D keeps one
// correlation table per temperature range for exactly this reason.
func (c *Chip) SetReadTemperature(tempC float64) {
	c.stress = c.stress.AtReadTemp(tempC)
}

// ProgramStates programs wordline wl with the given per-cell states.
// len(states) must equal CellsPerWordline and every state must be within
// range. Programming bumps the wordline's program epoch, redrawing its
// frozen cell offsets.
func (c *Chip) ProgramStates(wl int, states []uint8) error {
	c.checkAddr(wl)
	if len(states) != c.cfg.CellsPerWordline {
		return fmt.Errorf("flash: got %d states, want %d",
			len(states), c.cfg.CellsPerWordline)
	}
	maxState := uint8(c.coding.States() - 1)
	for i, s := range states {
		if s > maxState {
			return fmt.Errorf("flash: state %d at cell %d exceeds max %d",
				s, i, maxState)
		}
	}
	w := &c.wls[wl]
	w.programmed = true
	w.epoch++
	if w.states == nil {
		w.states = make([]uint8, len(states))
	}
	copy(w.states, states)
	if c.cfg.CacheZ {
		if w.zcache == nil {
			w.zcache = make([]float32, len(states))
		}
		c.model.FillCellZ(uint64(wl), w.epoch, w.zcache)
	}
	return nil
}

// ProgramRandom programs wordline wl with uniformly random states (host
// data is scrambled in real SSDs, so this is the realistic distribution).
// The rng drives only the data pattern, not the physics. It panics on a
// wordline out of range, like the read paths.
func (c *Chip) ProgramRandom(wl int, rng *mathx.Rand) {
	states := statePool.get(c.cfg.CellsPerWordline)
	n := c.coding.States()
	for i := range states {
		states[i] = uint8(rng.Intn(n))
	}
	// The states are valid by construction, so the only error left is
	// impossible; ProgramStates copies them, so recycling is safe.
	_ = c.ProgramStates(wl, states)
	statePool.put(states)
}

// IsProgrammed reports whether wordline wl holds data.
func (c *Chip) IsProgrammed(wl int) bool {
	c.checkAddr(wl)
	return c.wls[wl].programmed
}

// wordline returns the state of wordline wl, which must hold data.
func (c *Chip) wordline(wl int) *wlState {
	w := &c.wls[wl]
	if !w.programmed {
		panic("flash: read of unprogrammed wordline")
	}
	return w
}

// vthAll fills buf with every cell's threshold voltage for one read
// operation (one shared read seed): the eager form, which draws every
// cell's sensing noise and then applies any attached fault model. It
// returns the filled slice. env is caller-owned scratch for the resolved
// wordline environment (its slices are reused), so the steady-state path
// performs no allocations.
func (c *Chip) vthAll(wl int, readSeed uint64, buf []float64, env *physics.WLEnv) []float64 {
	w := c.wordline(wl)
	n := c.cfg.CellsPerWordline
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	c.vth0Into(wl, w, buf, env)
	// The sensing-noise hash stream setup is hoisted out of the loop
	// (physics.NoiseStream); each cell's Vth is its noiseless sum plus
	// its noise, exactly physics.CellVth's grouping.
	ns := c.model.Noise(readSeed)
	for i := range buf {
		buf[i] += ns.At(i)
	}
	if c.faults != nil {
		c.faults.PerturbVth(wl, readSeed, buf)
	}
	return buf
}

// vth0Into fills buf (len CellsPerWordline) with every cell's noiseless
// threshold voltage: the sum to which a read adds each cell's sensing
// noise. The program offsets z come from the wordline's cache (CacheZ)
// or, without one, are hashed into buf at full precision and summed in
// place.
func (c *Chip) vth0Into(wl int, w *wlState, buf []float64, env *physics.WLEnv) {
	c.model.EnvInto(env, c.LayerOf(wl), uint64(wl), c.stress)
	if w.zcache != nil {
		sumVth0(buf, env, c.pos, w.states, w.zcache)
		return
	}
	c.model.FillCellZ64(uint64(wl), w.epoch, buf)
	sumVth0(buf, env, c.pos, w.states, buf)
}

// sumVth0 sets buf[i] = (Mean + grad) + Sigma·z of cell i, physics.CellVth
// without the noise; z may be buf itself. The explicit conversions keep every product
// rounded on its own on every GOARCH, so the sum is the same whether the
// noise is added here or later. The erased state has no gradient term:
// its grad is exactly +0, which a mask of the product's bits gives
// without a branch (a multiply by 0 would give -0 for a negative
// product).
func sumVth0[Z float32 | float64](buf []float64, env *physics.WLEnv, pos []float64, states []uint8, z []Z) {
	pos, states, z = pos[:len(buf)], states[:len(buf)], z[:len(buf)]
	for i := range buf {
		s := states[i]
		grad := math.Float64frombits(math.Float64bits(float64(env.Gradient*pos[i])) & gradMask[s&15])
		buf[i] = env.Mean[s] + grad + float64(env.Sigma[s]*float64(z[i]))
	}
}

// gradMask keeps the gradient term's bits for every programmed state
// and clears them, to +0, for the erased state 0.
var gradMask = [16]uint64{0, ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0),
	^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0),
	^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}

// Offsets is a per-read-voltage tuning vector in normalized units,
// indexed by voltage-1 (so Offsets[0] tunes V1). A nil Offsets means all
// zeros (factory defaults).
type Offsets []float64

// ZeroOffsets returns an all-zero offset vector for n voltages.
func ZeroOffsets(n int) Offsets { return make(Offsets, n) }

// Clone returns a copy of o.
func (o Offsets) Clone() Offsets {
	if o == nil {
		return nil
	}
	return append(Offsets(nil), o...)
}

// Get returns the offset of voltage v (1-based); 0 if o is nil.
func (o Offsets) Get(v int) float64 {
	if o == nil {
		return 0
	}
	return o[v-1]
}

// voltage returns the actual read voltage for v under offsets o.
func (c *Chip) voltage(v int, o Offsets) float64 {
	return c.model.DefaultReadVoltage(v) + o.Get(v)
}

// ReadPage senses page p of wordline wl with the given offsets and
// returns the readout as a bitmap (bit i = cell i's page bit). Each call
// is one read operation with fresh sensing noise derived from readSeed.
// The result comes from the shared bitmap pool: callers on hot paths may
// recycle it with PutBitmap, others can simply drop it.
func (c *Chip) ReadPage(wl, p int, o Offsets, readSeed uint64) Bitmap {
	op := c.BeginRead(wl, readSeed)
	defer op.Close()
	return op.ReadPageInto(GetBitmap(c.cfg.CellsPerWordline), p, o)
}

// TrueBits returns the programmed (ground-truth) bits of page p on
// wordline wl.
func (c *Chip) TrueBits(wl, p int) Bitmap {
	return c.TrueBitsInto(nil, wl, p)
}

// TrueBitsInto is TrueBits writing into dst (reused when its capacity
// suffices, otherwise freshly allocated).
func (c *Chip) TrueBitsInto(dst Bitmap, wl, p int) Bitmap {
	c.checkAddr(wl)
	w := &c.wls[wl]
	if !w.programmed {
		panic("flash: TrueBits of unprogrammed wordline")
	}
	var bitOf [16]uint64
	for s := 0; s < c.coding.States(); s++ {
		bitOf[s] = uint64(c.coding.PageBit(s, p))
	}
	n := len(w.states)
	dst = ensureBitmap(dst, n)
	i := 0
	for wi := range dst {
		lim := i + 64
		if lim > n {
			lim = n
		}
		var word uint64
		for ; i < lim; i++ {
			word |= bitOf[w.states[i]] << (uint(i) & 63)
		}
		dst[wi] = word
	}
	return dst
}

// Sense applies the single read voltage v (with offset) and returns a
// bitmap where bit i is set when cell i's Vth is at or above the voltage.
// This models one sensing level — the primitive from which LSB reads and
// the calibration state-change counts are built. The result comes from
// the shared bitmap pool, like ReadPage's.
func (c *Chip) Sense(wl, v int, offset float64, readSeed uint64) Bitmap {
	op := c.BeginRead(wl, readSeed)
	defer op.Close()
	return op.SenseInto(GetBitmap(c.cfg.CellsPerWordline), v, offset)
}

// VoltageErrors counts the up and down errors introduced by read voltage
// v at the given offset: up errors are cells programmed below the
// boundary (state <= v-1) but sensed above it; down errors the converse.
// This is the paper's per-voltage error metric (Figs. 16-18).
func (c *Chip) VoltageErrors(wl, v int, offset float64, readSeed uint64) (up, down int) {
	op := c.BeginRead(wl, readSeed)
	defer op.Close()
	return op.VoltageErrors(v, offset)
}

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
	// one read operation on wordline (b, wl). readSeed identifies the read
	// operation, exactly as for sensing noise.
	PerturbVth(b, wl int, readSeed uint64, vth []float64)
}

// Config describes the geometry and technology of a simulated chip.
type Config struct {
	// Kind selects TLC or QLC.
	Kind Kind

	// Blocks, Layers, WordlinesPerLayer and CellsPerWordline set the
	// geometry. The paper's chips have 64 layers; wordline w belongs to
	// layer w % Layers (wordlines of a layer are interleaved across the
	// block, as in multi-string 3D NAND).
	Blocks            int
	Layers            int
	WordlinesPerLayer int
	CellsPerWordline  int

	// OOBFraction is the fraction of each wordline reserved as the
	// out-of-band area (ECC parity + spare). The paper's example page is
	// 18592 bytes with 2208 bytes OOB, i.e. ~11.9%.
	OOBFraction float64

	// Seed determines the chip instance (its frozen process variation).
	Seed uint64

	// Params optionally overrides the physics parameters; nil selects the
	// defaults for Kind.
	Params *physics.Params

	// CacheZ caches each wordline's frozen program offsets as float32 at
	// program time, trading memory (4 bytes/cell) for much faster repeated
	// reads. Recommended for experiments; tests with tiny geometries can
	// disable it to exercise the hash path.
	CacheZ bool
}

// DefaultConfig returns a block-scale configuration mirroring the paper's
// chips: 64 layers, 12 wordlines per layer (768 wordlines per block).
// CellsPerWordline is reduced from the physical ~150k to keep simulations
// fast; error *rates* are unaffected.
func DefaultConfig(kind Kind) Config {
	return Config{
		Kind:              kind,
		Blocks:            1,
		Layers:            64,
		WordlinesPerLayer: 12,
		CellsPerWordline:  32768,
		OOBFraction:       0.119,
		Seed:              1,
		CacheZ:            true,
	}
}

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
	return int(float64(c.CellsPerWordline) * c.OOBFraction)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Blocks <= 0 || c.Layers <= 0 || c.WordlinesPerLayer <= 0 {
		return fmt.Errorf("flash: non-positive geometry %+v", c)
	}
	if c.CellsPerWordline < 64 {
		return fmt.Errorf("flash: CellsPerWordline %d too small", c.CellsPerWordline)
	}
	if c.OOBFraction < 0 || c.OOBFraction > 0.5 {
		return fmt.Errorf("flash: OOBFraction %v out of [0, 0.5]", c.OOBFraction)
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
//     SweepVoltageErrors, IsProgrammed, Stress, and the accessors) only
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
//   - Block-level mutations (Cycle, Age, SetStress, SetReadTemperature)
//     write the shared block stress state and must not run concurrently
//     with anything else touching that block. SetFaults swaps the
//     chip-wide fault model and must not run concurrently with anything
//     at all.
//
// The experiment drivers in internal/experiments rely on exactly this:
// they fan out per-wordline work (programming, then read-only sweeps)
// and perform all block aging from the coordinating goroutine.
type Chip struct {
	cfg    Config
	coding *Coding
	model  *physics.Model
	blocks []blockState
	faults FaultModel
	// pos[i] is cell i's position along the wordline, (i+0.5)/n - 0.5,
	// the factor of the intra-wordline gradient; set with CacheZ, whose
	// reads derive each cell's Vth from it (vth0Into).
	pos []float64
}

type blockState struct {
	stress physics.Stress
	wls    []wlState
}

type wlState struct {
	programmed bool
	epoch      uint64
	states     []uint8
	zcache     []float32
}

// New builds a chip. The same Config always yields an identical chip.
func New(cfg Config) (*Chip, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	params := cfg.Params
	if params == nil {
		var p physics.Params
		if cfg.Kind == TLC {
			p = physics.TLC()
		} else {
			p = physics.QLC()
		}
		params = &p
	}
	if params.Bits != cfg.Kind.Bits() {
		return nil, fmt.Errorf("flash: params bits %d do not match kind %v",
			params.Bits, cfg.Kind)
	}
	model, err := physics.NewModel(*params, cfg.Seed)
	if err != nil {
		return nil, err
	}
	c := &Chip{
		cfg:    cfg,
		coding: NewCoding(params.Bits),
		model:  model,
		blocks: make([]blockState, cfg.Blocks),
	}
	for b := range c.blocks {
		c.blocks[b].wls = make([]wlState, cfg.WordlinesPerBlock())
	}
	if cfg.CacheZ {
		c.pos = make([]float64, cfg.CellsPerWordline)
		nf := float64(cfg.CellsPerWordline)
		for i := range c.pos {
			c.pos[i] = (float64(i)+0.5)/nf - 0.5
		}
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

// Faults returns the attached fault model (nil when fault-free).
func (c *Chip) Faults() FaultModel { return c.faults }

// LayerOf returns the layer of wordline wl within its block.
func (c *Chip) LayerOf(wl int) int { return wl % c.cfg.Layers }

// globalWL returns the chip-global wordline id.
func (c *Chip) globalWL(b, wl int) uint64 {
	return uint64(b)*uint64(c.cfg.WordlinesPerBlock()) + uint64(wl)
}

func (c *Chip) checkAddr(b, wl int) {
	if b < 0 || b >= c.cfg.Blocks {
		panic(fmt.Sprintf("flash: block %d out of range [0,%d)", b, c.cfg.Blocks))
	}
	if wl < 0 || wl >= c.cfg.WordlinesPerBlock() {
		panic(fmt.Sprintf("flash: wordline %d out of range [0,%d)",
			wl, c.cfg.WordlinesPerBlock()))
	}
}

// Stress returns the current stress state of block b.
func (c *Chip) Stress(b int) physics.Stress {
	c.checkAddr(b, 0)
	return c.blocks[b].stress
}

// Cycle adds n P/E cycles of pure wear to block b without changing its
// contents — the standard way test platforms pre-condition blocks before
// a characterization run.
func (c *Chip) Cycle(b, n int) {
	c.checkAddr(b, 0)
	c.blocks[b].stress = c.blocks[b].stress.Cycled(n)
}

// Age adds retention time at tempC to block b. Time at elevated
// temperature is Arrhenius-accelerated, exactly like the paper's baking
// procedure.
func (c *Chip) Age(b int, hours, tempC float64) {
	c.checkAddr(b, 0)
	c.blocks[b].stress = c.blocks[b].stress.Aged(c.model.P, hours, tempC)
}

// SetStress forces block b's stress state directly. Characterization
// benches use this to jump between stress points; runtime code never
// would.
func (c *Chip) SetStress(b int, st physics.Stress) {
	c.checkAddr(b, 0)
	c.blocks[b].stress = st
}

// SetReadTemperature sets the ambient temperature for subsequent reads of
// block b. Reading away from the programming temperature shifts the
// states (cross-temperature effect); the paper's Section III-D keeps one
// correlation table per temperature range for exactly this reason.
func (c *Chip) SetReadTemperature(b int, tempC float64) {
	c.checkAddr(b, 0)
	c.blocks[b].stress = c.blocks[b].stress.AtReadTemp(tempC)
}

// ProgramStates programs wordline (b, wl) with the given per-cell states.
// len(states) must equal CellsPerWordline and every state must be within
// range. Programming bumps the wordline's program epoch, redrawing its
// frozen cell offsets.
func (c *Chip) ProgramStates(b, wl int, states []uint8) error {
	c.checkAddr(b, wl)
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
	w := &c.blocks[b].wls[wl]
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
		c.model.FillCellZ(c.globalWL(b, wl), w.epoch, w.zcache)
	} else {
		w.zcache = nil
	}
	return nil
}

// ProgramRandom programs wordline (b, wl) with uniformly random states
// (host data is scrambled in real SSDs, so this is the realistic
// distribution). The rng drives only the data pattern, not the physics.
// The error is always nil: the generated states are valid by
// construction.
func (c *Chip) ProgramRandom(b, wl int, rng *mathx.Rand) error {
	states := statePool.get(c.cfg.CellsPerWordline)
	n := c.coding.States()
	for i := range states {
		states[i] = uint8(rng.Intn(n))
	}
	err := c.ProgramStates(b, wl, states) // copies; safe to recycle
	statePool.put(states)
	return err
}

// IsProgrammed reports whether wordline (b, wl) holds data.
func (c *Chip) IsProgrammed(b, wl int) bool {
	c.checkAddr(b, wl)
	return c.blocks[b].wls[wl].programmed
}

// States returns a copy of the programmed states of wordline (b, wl).
// This is simulator ground truth: characterization and oracle baselines
// use it, the sentinel FTL path does not.
func (c *Chip) States(b, wl int) []uint8 {
	c.checkAddr(b, wl)
	w := &c.blocks[b].wls[wl]
	if !w.programmed {
		return nil
	}
	out := make([]uint8, len(w.states))
	copy(out, w.states)
	return out
}

// wordline returns the state of wordline (b, wl), which must hold data.
func (c *Chip) wordline(b, wl int) *wlState {
	w := &c.blocks[b].wls[wl]
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
func (c *Chip) vthAll(b, wl int, readSeed uint64, buf []float64, env *physics.WLEnv) []float64 {
	w := c.wordline(b, wl)
	n := c.cfg.CellsPerWordline
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	if w.zcache != nil {
		c.vth0Into(b, wl, w, buf, env)
		// The sensing-noise hash stream setup is hoisted out of the loop
		// (physics.NoiseStream); each cell's Vth is its noiseless sum plus
		// its noise, exactly the scalar path's grouping.
		ns := c.model.Noise(readSeed)
		for i := range buf {
			buf[i] += ns.At(i)
		}
	} else {
		c.model.EnvInto(env, c.LayerOf(wl), c.globalWL(b, wl), c.blocks[b].stress)
		c.model.FillVth(*env, c.globalWL(b, wl), w.states, w.epoch, readSeed, buf)
	}
	if c.faults != nil {
		c.faults.PerturbVth(b, wl, readSeed, buf)
	}
	return buf
}

// vth0Into fills buf (len CellsPerWordline) with every cell's noiseless
// threshold voltage, (Mean + grad) + Sigma·z from the wordline's cached
// program offsets: the sum to which a read adds each cell's sensing
// noise. The explicit conversions keep every product rounded on its own
// on every GOARCH, so the sum is the same whether the noise is added here
// or later. The erased state has no gradient term: its grad is exactly
// +0, which a mask of the product's bits gives without a branch (a
// multiply by 0 would give -0 for a negative product).
func (c *Chip) vth0Into(b, wl int, w *wlState, buf []float64, env *physics.WLEnv) {
	c.model.EnvInto(env, c.LayerOf(wl), c.globalWL(b, wl), c.blocks[b].stress)
	pos, states, z := c.pos[:len(buf)], w.states[:len(buf)], w.zcache[:len(buf)]
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

// ReadPage senses page p of wordline (b, wl) with the given offsets and
// returns the readout as a bitmap (bit i = cell i's page bit). Each call
// is one read operation with fresh sensing noise derived from readSeed.
// The result comes from the shared bitmap pool: callers on hot paths may
// recycle it with PutBitmap, others can simply drop it.
func (c *Chip) ReadPage(b, wl, p int, o Offsets, readSeed uint64) Bitmap {
	op := c.BeginRead(b, wl, readSeed)
	defer op.Close()
	return op.ReadPageInto(GetBitmap(c.cfg.CellsPerWordline), p, o)
}

// TrueBits returns the programmed (ground-truth) bits of page p on
// wordline (b, wl).
func (c *Chip) TrueBits(b, wl, p int) Bitmap {
	return c.TrueBitsInto(nil, b, wl, p)
}

// TrueBitsInto is TrueBits writing into dst (reused when its capacity
// suffices, otherwise freshly allocated).
func (c *Chip) TrueBitsInto(dst Bitmap, b, wl, p int) Bitmap {
	c.checkAddr(b, wl)
	w := &c.blocks[b].wls[wl]
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
func (c *Chip) Sense(b, wl, v int, offset float64, readSeed uint64) Bitmap {
	op := c.BeginRead(b, wl, readSeed)
	defer op.Close()
	return op.SenseInto(GetBitmap(c.cfg.CellsPerWordline), v, offset)
}

// VoltageErrors counts the up and down errors introduced by read voltage
// v at the given offset: up errors are cells programmed below the
// boundary (state <= v-1) but sensed above it; down errors the converse.
// This is the paper's per-voltage error metric (Figs. 16-18).
func (c *Chip) VoltageErrors(b, wl, v int, offset float64, readSeed uint64) (up, down int) {
	op := c.BeginRead(b, wl, readSeed)
	defer op.Close()
	return op.VoltageErrors(v, offset)
}

// CountPageErrors reads page p with offsets o and returns the number of
// bit errors against the programmed data.
func (c *Chip) CountPageErrors(b, wl, p int, o Offsets, readSeed uint64) int {
	op := c.BeginRead(b, wl, readSeed)
	defer op.Close()
	return op.CountPageErrors(p, o)
}

// PageRBER returns CountPageErrors divided by the wordline cell count.
func (c *Chip) PageRBER(b, wl, p int, o Offsets, readSeed uint64) float64 {
	return float64(c.CountPageErrors(b, wl, p, o, readSeed)) /
		float64(c.cfg.CellsPerWordline)
}

package retry

import (
	"errors"
	"fmt"

	"sentinel3d/internal/ecc"
	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
)

// Env gives a policy controlled access to the chip during one read: it can
// issue auxiliary single-voltage senses, with every operation's latency
// accounted on the read.
type Env struct {
	Chip  *flash.Chip
	B, WL int
	Page  int

	seed      uint64
	op        *flash.ReadOp // the read's one handle on (B, WL)
	senseOps  int
	extraCost float64
	scratch   []flash.Bitmap
	met       *Metrics
}

// Sense performs an accounted one-voltage auxiliary read at voltage v with
// the given offset and returns the sense bitmap (bit set = cell at or
// above the voltage). The bitmap stays valid until the controller finishes
// the current read, after which it is recycled — sessions must not retain
// it across reads. Each sense is a fresh noise draw on the read's handle.
func (e *Env) Sense(v int, offset float64) flash.Bitmap {
	e.senseOps++
	e.extraCost += AuxSense()
	e.op.Redraw(mathx.Mix3(e.seed, 0xa5e, uint64(e.senseOps)))
	return e.hold(e.op.SenseInto(flash.GetBitmap(e.op.Cells()), v, offset))
}

// hold registers a pooled bitmap for bulk release when the read finishes.
func (e *Env) hold(bm flash.Bitmap) flash.Bitmap {
	e.scratch = append(e.scratch, bm)
	return bm
}

// release recycles every bitmap handed out during the read.
func (e *Env) release() {
	for _, bm := range e.scratch {
		flash.PutBitmap(bm)
	}
	e.scratch = nil
}

// Coding returns the chip's page coding.
func (e *Env) Coding() *flash.Coding { return e.Chip.Coding() }

// Session is the per-read state of a policy. NextOffsets is called with
// the attempt number k (0 = first read), the previous attempt's readout
// bitmap (nil when k = 0), and the offsets that attempt used. It returns
// the offsets for attempt k, or ok=false to give up.
//
// The prior bitmap aliases a controller-owned buffer that is overwritten
// by the next attempt: it is valid only for the duration of the
// NextOffsets call. A session that needs the readout later must copy it
// (see Env.senseFromLSBReadout).
type Session interface {
	NextOffsets(k int, prior flash.Bitmap, priorOfs flash.Offsets) (ofs flash.Offsets, ok bool)
}

// Policy produces the per-read sessions of one read policy.
type Policy interface {
	Session(env *Env) Session
}

// PipelinedSession is the optional interface of sessions whose retry
// stepping is pipelined (AR²-style): the next attempt's sense is
// launched while the current attempt's ECC decode runs. The controller
// then charges StepLatency(levels, true) for every attempt after the
// first. Only latency is pipelined — each attempt is still a fresh
// sense with its own noise draw, so retry counts match the serial walk
// of the same offset schedule exactly.
type PipelinedSession interface {
	Session
	Pipelined() bool
}

// Result reports one serviced read.
type Result struct {
	// OK is false when the read exhausted its retry budget or could not be
	// serviced at all (see Err).
	OK bool
	// Retries is the number of re-read attempts after the first read.
	Retries int
	// AuxSenses is the number of auxiliary one-voltage reads performed
	// (sentinel measurements and calibration probes).
	AuxSenses int
	// Latency is the total service time in microseconds.
	Latency float64
	// FinalOffsets is the offset vector of the last attempt.
	FinalOffsets flash.Offsets
	// FinalErrors is the raw bit-error count of the last attempt over the
	// ECC-protected user cells (simulator-side observability).
	FinalErrors int
	// OverlapSavedUS is the latency hidden by pipelined (AR²-style)
	// retry stepping: for each retry, the part of its sense that ran
	// during the previous attempt's ECC decode. Zero for serial
	// policies.
	OverlapSavedUS float64
	// UsedFallback reports that the policy abandoned its primary inference
	// path and degraded to its fallback (see FallbackPolicy) at some point
	// during this read.
	UsedFallback bool
	// Uncorrectable reports that the read was attempted but ECC never
	// decoded within the retry budget — the read-path equivalent of a
	// media error, which an FTL surfaces to the host.
	Uncorrectable bool
	// Err is non-nil when the read could not be attempted: the address is
	// out of range (ErrBadAddress) or the wordline holds no data
	// (ErrNotProgrammed). Retries/Latency are zero in that case.
	Err error
}

// Errors reported through Result.Err.
var (
	ErrBadAddress    = errors.New("retry: address out of range")
	ErrNotProgrammed = errors.New("retry: wordline not programmed")
)

// Controller drives reads against a chip with a policy and an ECC model.
type Controller struct {
	Chip       *flash.Chip
	ECC        ecc.CapabilityModel
	MaxRetries int
	// Obs, when non-nil, receives per-read metrics (see Metrics); nil
	// costs one branch per read.
	Obs *Metrics
}

// NewController validates and builds a controller.
func NewController(chip *flash.Chip, model ecc.CapabilityModel, maxRetries int) (*Controller, error) {
	if chip == nil {
		return nil, fmt.Errorf("retry: nil chip")
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if maxRetries < 0 {
		return nil, fmt.Errorf("retry: negative retry budget %d", maxRetries)
	}
	return &Controller{Chip: chip, ECC: model, MaxRetries: maxRetries}, nil
}

// Read services one page read with the given policy. readSeed
// de-correlates sensing noise across reads.
//
// Invalid addresses and unprogrammed wordlines are reported through
// Result.Err (with OK=false) rather than panicking, so callers such as
// trace-driven simulators need no pre-checks of their own.
func (c *Controller) Read(b, wl, page int, pol Policy, readSeed uint64) Result {
	if err := c.checkPage(b, wl, page); err != nil {
		return Result{Err: err}
	}
	op, err := c.Begin(b, wl, readSeed)
	if err != nil {
		return Result{Err: err}
	}
	defer op.Close()
	return c.read(op, b, wl, page, pol, readSeed)
}

// Begin opens a handle on wordline (b, wl) for ReadOn, drawn for the
// first attempt of the read with seed readSeed, or reports why the
// wordline cannot be read (ErrBadAddress, ErrNotProgrammed). The caller
// closes the handle.
func (c *Controller) Begin(b, wl int, readSeed uint64) (*flash.ReadOp, error) {
	cfg := c.Chip.Config()
	if b < 0 || b >= cfg.Blocks || wl < 0 || wl >= cfg.WordlinesPerBlock() {
		return nil, fmt.Errorf("%w: block %d wordline %d", ErrBadAddress, b, wl)
	}
	if !c.Chip.IsProgrammed(b, wl) {
		return nil, fmt.Errorf("%w: block %d wordline %d", ErrNotProgrammed, b, wl)
	}
	return c.Chip.BeginRead(b, wl, attemptSeed(readSeed, 0)), nil
}

// ReadOn is Read of a page of the wordline that op, a handle on
// c.Chip, reads. Every attempt and auxiliary sense re-reads that one
// wordline, so they all go through op, each redrawing it with its own
// seed: the result is Read's whatever op was drawn with before, and a
// caller that reads one wordline many times derives its cells once.
func (c *Controller) ReadOn(op *flash.ReadOp, page int, pol Policy, readSeed uint64) Result {
	b, wl := op.Wordline()
	if err := c.checkPage(b, wl, page); err != nil {
		return Result{Err: err}
	}
	return c.read(op, b, wl, page, pol, readSeed)
}

// checkPage reports a page outside the chip's pages per wordline.
func (c *Controller) checkPage(b, wl, page int) error {
	if page < 0 || page >= c.Chip.Config().Kind.Bits() {
		return fmt.Errorf("%w: block %d wordline %d page %d", ErrBadAddress, b, wl, page)
	}
	return nil
}

// attemptSeed is the read seed of attempt k of the read with seed
// readSeed.
func attemptSeed(readSeed uint64, k int) uint64 { return mathx.Mix3(readSeed, 0x5ead, uint64(k)) }

func (c *Controller) read(op *flash.ReadOp, b, wl, page int, pol Policy, readSeed uint64) Result {
	env := &Env{
		Chip: c.Chip, B: b, WL: wl, Page: page,
		seed: readSeed, op: op, met: c.Obs,
	}
	sess := pol.Session(env)
	pipelined := false
	if ps, ok := sess.(PipelinedSession); ok {
		pipelined = ps.Pipelined()
	}
	coding := c.Chip.Coding()
	levels := len(coding.PageVoltages(page))
	userBits := c.Chip.Config().UserCells()
	cells := op.Cells()
	// All per-read buffers are pooled and recycled on exit: one readout
	// buffer per parity of the attempt number (the session may inspect
	// the prior attempt while the next one is sensed into the other
	// buffer) and the error bitmap. The ground truth is the handle's.
	truth := op.TrueBits(page)
	bufs := [2]flash.Bitmap{flash.GetBitmap(cells), flash.GetBitmap(cells)}
	errs := flash.GetBitmap(cells)

	var res Result
	var prior flash.Bitmap
	var priorOfs flash.Offsets
	for k := 0; ; k++ {
		ofs, ok := sess.NextOffsets(k, prior, priorOfs)
		if !ok {
			if k > 0 {
				res.Retries = k - 1
			}
			break
		}
		// Every attempt is a fresh sense with its own noise draw — for
		// pipelined sessions too, which overlap the NEXT sense with the
		// CURRENT decode but still sense anew (only the latency is
		// pipelined, never the electrons).
		op.Redraw(attemptSeed(readSeed, k))
		read := op.ReadPageInto(bufs[k&1], page, ofs)
		step := StepLatency(levels, pipelined && k > 0)
		if pipelined && k > 0 {
			res.OverlapSavedUS += PageRead(levels) - step
		}
		res.Latency += step
		res.FinalOffsets = ofs
		for i := range errs {
			errs[i] = read[i] ^ truth[i]
		}
		res.FinalErrors = errs.PopCountRange(0, userBits)
		if c.ECC.DecodePage(errs, userBits) {
			res.OK = true
			res.Retries = k
			break
		}
		if k >= c.MaxRetries {
			res.Retries = k
			break
		}
		prior, priorOfs = read, ofs
	}
	res.AuxSenses = env.senseOps
	res.Latency += env.extraCost
	res.Uncorrectable = !res.OK
	if fs, ok := sess.(interface{ UsedFallback() bool }); ok {
		res.UsedFallback = fs.UsedFallback()
	}
	flash.PutBitmap(errs)
	flash.PutBitmap(bufs[1])
	flash.PutBitmap(bufs[0])
	env.release()
	c.Obs.record(&res, coding.SentinelVoltage())
	return res
}

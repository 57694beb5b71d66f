package experiments

import (
	"fmt"

	"sentinel3d/internal/ecc"
	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/parallel"
	"sentinel3d/internal/physics"
	"sentinel3d/internal/sentinel"
)

// ---------------------------------------------------------------------------
// Figure 19: LDPC decoding success under hard / 2-bit / 3-bit soft
// sensing, comparing OPT, current-flash and sentinel voltage selection —
// with the sentinel variant paying the worst-case price of carving its
// cells out of the ECC parity budget.

// Fig19Method indexes the three compared configurations.
type Fig19Method int

// The three Figure 19 configurations.
const (
	Fig19OPT Fig19Method = iota
	Fig19CurrentFlash
	Fig19Sentinel
)

// Fig19Point is a decoding success rate for one configuration.
type Fig19Point struct {
	PE          int
	SensingBits int
	Method      Fig19Method
	SuccessRate float64
}

// Fig19Result holds the sweep.
type Fig19Result struct {
	Points []Fig19Point
	// Rates of the full and sentinel-reduced codes.
	FullRate, ReducedRate float64
}

// fig19Frame carries one programmed LDPC frame on a wordline's LSB page.
type fig19Frame struct {
	wl   int
	data []bool // information bits
	cw   []bool // full codeword (data + parity), bit=1 -> below boundary
}

// Fig19LDPC runs real LDPC decoding over frames stored on QLC LSB pages
// across P/E counts (one-year retention each), with three sensing
// precisions. The sentinel configuration uses a code whose parity budget
// is reduced by the sentinel cells (the paper's worst case), while OPT
// and current flash keep the full parity.
func Fig19LDPC(s Scale) (*Fig19Result, error) {
	const wordlines = 12
	model, err := s.TrainModel(flash.QLC, 119)
	if err != nil {
		return nil, err
	}
	cfg := s.ChipConfig(flash.QLC, 219)
	layout := s.Layout()
	sentinels := layout.Count(cfg)
	sv := 8

	// Code dimensioning: per 8192 data bits the OOB parity share is
	// 8192 * 0.109/0.881 ~ 1014 bits; the sentinel variant loses its
	// per-frame share of the sentinel cells.
	const k = 8192
	kf := float64(k)
	parity := int(kf*0.109/0.881 + 0.5)
	user := cfg.UserCells()
	framesPerWL := user / (k + parity)
	if framesPerWL < 1 {
		return nil, fmt.Errorf("experiments: wordline too small for an LDPC frame")
	}
	sentShare := sentinels * k / user
	fullCode, err := ecc.NewLDPC(k, parity, 0x19a)
	if err != nil {
		return nil, err
	}
	redParity := parity - sentShare
	if redParity < 8 {
		redParity = 8
	}
	reducedCode, err := ecc.NewLDPC(k, redParity, 0x19b)
	if err != nil {
		return nil, err
	}

	res := &Fig19Result{
		FullRate:    fullCode.Rate(),
		ReducedRate: reducedCode.Rate(),
	}

	sensings := []ecc.Sensing{
		ecc.HardSensing(),
		ecc.SoftSensing(2, 12),
		ecc.SoftSensing(3, 8),
	}
	// LLR tables from the nominal boundary geometry (state width 128,
	// aged sigma ~26): what a controller would precompute per bin.
	llrTabs := make([][]float64, len(sensings))
	for i, sn := range sensings {
		llrTabs[i] = sn.LLRTable(128, 26) // QLC state width, aged sigma
	}

	indices := layout.Indices(cfg)
	rng := mathx.NewRand(0x19c)
	for _, pe := range []int{0, 1000, 2000, 3000, 4000, 5000} {
		chip, err := flash.New(cfg)
		if err != nil {
			return nil, err
		}
		// Program frames: only the first frame of each wordline is used
		// (framesPerWL >= 1), data random per wordline.
		frames := make([]fig19Frame, 0, wordlines)
		states := make([]uint8, cfg.CellsPerWordline)
		for fwl := 0; fwl < wordlines; fwl++ {
			wl := fwl * cfg.WordlinesPerBlock() / wordlines
			data := make([]bool, k)
			for i := range data {
				data[i] = rng.Float64() < 0.5
			}
			cw := fullCode.Encode(data)
			// Also encode under the reduced code for the sentinel method.
			// The frame stores the full-parity codeword in the first
			// k+parity cells and the reduced parity in the following
			// cells, so both methods read their own bits.
			cwRed := reducedCode.Encode(data)
			for i := range states {
				states[i] = uint8(rng.Intn(16))
			}
			writeBits := func(bits []bool, start int) {
				for i, b := range bits {
					cell := start + i
					if b {
						states[cell] = uint8(rng.Intn(sv)) // below boundary
					} else {
						states[cell] = uint8(sv + rng.Intn(16-sv)) // at/above
					}
				}
			}
			writeBits(cw, 0)
			writeBits(cwRed[k:], k+parity) // reduced parity after the full frame
			layout.ApplyPattern(states, indices, sv)
			if err := chip.ProgramStates(wl, states); err != nil {
				return nil, err
			}
			frames = append(frames, fig19Frame{wl: wl, data: data, cw: cw})
		}
		chip.Cycle(pe)
		chip.Age(physics.YearHours, physics.RoomTempC)
		plan := chip.PlanSweep(fig19Offsets)

		// One fan-out over every (sensing, method, frame) task of this
		// P/E, counted back in (sensing, method) order.
		nf := len(frames)
		perSensing := int(Fig19Sentinel+1) * nf
		goods, err := parallel.MapErr(len(sensings)*perSensing, func(t int) (bool, error) {
			si, m, fi := t/perSensing, Fig19Method(t%perSensing/nf), t%nf
			return decodeFrame(chip, plan, model, layout, &frames[fi],
				fullCode, reducedCode, parity, sensings[si], llrTabs[si], m,
				mathx.Mix4(0x19d, uint64(pe), uint64(si), uint64(fi)))
		})
		if err != nil {
			return nil, err
		}
		for si, sn := range sensings {
			for m := Fig19OPT; m <= Fig19Sentinel; m++ {
				ok := 0
				for _, good := range goods[si*perSensing+int(m)*nf:][:nf] {
					if good {
						ok++
					}
				}
				res.Points = append(res.Points, Fig19Point{
					PE: pe, SensingBits: sn.Bits, Method: m,
					SuccessRate: float64(ok) / float64(nf),
				})
			}
		}
	}
	return res, nil
}

// decodeFrame reads and decodes one frame under the given method.
func decodeFrame(chip *flash.Chip, plan *flash.SweepPlan, model *sentinel.Model, layout sentinel.Layout,
	fr *fig19Frame, fullCode, reducedCode *ecc.LDPC, parity int,
	sn ecc.Sensing, llrTab []float64, m Fig19Method, seed uint64) (bool, error) {

	sv := model.SentinelVoltage
	cfg := chip.Config()
	indices := layout.Indices(cfg)
	k := fullCode.K

	attempt := func(offset float64, code *ecc.LDPC, parityStart, parityLen int, try uint64) bool {
		llr := senseLLR(chip, fr.wl, sv, offset, sn, llrTab, seed^try, k, parityStart, parityLen)
		got, ok := code.DecodeData(llr, 40)
		if !ok {
			return false
		}
		for i := range fr.data {
			if got[i] != fr.data[i] {
				return false
			}
		}
		return true
	}

	switch m {
	case Fig19OPT:
		// Ground-truth optimal offset for the boundary, via a sweep.
		opt := sweepBoundary(chip, plan, fr.wl, sv, seed)
		return attempt(opt, fullCode, k, parity, 1), nil
	case Fig19CurrentFlash:
		// Walk the static table on the sentinel boundary.
		for step := 0; step <= 10; step++ {
			if attempt(-2*float64(step), fullCode, k, parity, uint64(step+2)) {
				return true, nil
			}
		}
		return false, nil
	default: // Fig19Sentinel — reduced-parity code, inferred voltage.
		sense := chip.Sense(fr.wl, sv, 0, seed^0xdef)
		d := sentinel.ErrorDiffRate(sense, indices)
		ofs := model.InferSentinelOffset(d)
		if attempt(ofs, reducedCode, k+parity, reducedCode.M, 20) {
			return true, nil
		}
		// One calibration-style nudge each way.
		if attempt(ofs-4, reducedCode, k+parity, reducedCode.M, 21) {
			return true, nil
		}
		return attempt(ofs+4, reducedCode, k+parity, reducedCode.M, 22), nil
	}
}

// senseLLR builds channel LLRs for the k data cells plus the parity cells
// at parityStart, using 2^bits-1 senses around the read voltage.
func senseLLR(chip *flash.Chip, wl, v int, offset float64, sn ecc.Sensing,
	llrTab []float64, seed uint64, k, parityStart, parityLen int) []float64 {

	levels := sn.Levels()
	senses := make([]flash.Bitmap, len(levels))
	// The levels re-read one wordline: one handle, redrawn per level.
	op := chip.BeginRead(wl, mathx.Mix(seed, 0))
	for i, lv := range levels {
		op.Redraw(mathx.Mix(seed, uint64(i)))
		senses[i] = op.Sense(v, offset+lv)
	}
	op.Close()
	n := k + parityLen
	out := make([]float64, n)
	fill := func(dst int, cell int) {
		region := 0
		for _, s := range senses {
			if s.Get(cell) {
				region++
			}
		}
		// llrTab[region] is positive for regions favouring "below the
		// boundary" (region = number of sensing levels below Vth, so low
		// regions are below). Bit 1 is stored below the boundary, and the
		// decoder convention is llr = log P(bit 0)/P(bit 1): flip the
		// sign.
		out[dst] = -llrTab[region]
	}
	for i := 0; i < k; i++ {
		fill(i, i)
	}
	for i := 0; i < parityLen; i++ {
		fill(k+i, parityStart+i)
	}
	return out
}

// sweepBoundary locates boundary v's optimal offset on wordline wl by
// error sweep against the programmed states, over the grid plan was
// planned for (fig19Offsets).
func sweepBoundary(chip *flash.Chip, plan *flash.SweepPlan, wl, v int, seed uint64) float64 {
	op := chip.BeginRead(wl, seed^0x0b7)
	errs := op.SweepPlanned(plan)[v-1]
	op.Close()
	best := 0
	for i, e := range errs {
		if e < errs[best] {
			best = i
		}
	}
	return fig19Offsets[best]
}

// fig19Offsets is the OPT method's sweep grid.
var fig19Offsets = func() []float64 {
	var offs []float64
	for o := -50.0; o <= 20; o += 2 {
		offs = append(offs, o)
	}
	return offs
}()

// SuccessRate returns the rate for a specific configuration.
func (r *Fig19Result) SuccessRate(pe, sensingBits int, m Fig19Method) (float64, bool) {
	for _, p := range r.Points {
		if p.PE == pe && p.SensingBits == sensingBits && p.Method == m {
			return p.SuccessRate, true
		}
	}
	return 0, false
}

// Render prints the success-rate grid.
func (r *Fig19Result) Render() string {
	out := fmt.Sprintf("Fig 19 (QLC): LDPC decoding success (full rate %.3f, "+
		"sentinel-reduced rate %.3f)\n", r.FullRate, r.ReducedRate)
	header := []string{"sensing", "P/E", "OPT", "current-flash", "sentinel"}
	var rows [][]string
	for _, bits := range []int{1, 2, 3} {
		for _, pe := range []int{0, 1000, 2000, 3000, 4000, 5000} {
			row := []string{fmt.Sprintf("%d-bit", bits), fmt.Sprint(pe)}
			for m := Fig19OPT; m <= Fig19Sentinel; m++ {
				rate, ok := r.SuccessRate(pe, bits, m)
				if !ok {
					row = append(row, "-")
					continue
				}
				row = append(row, Pct(rate))
			}
			rows = append(rows, row)
		}
	}
	return out + Table(header, rows)
}

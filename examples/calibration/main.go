// Calibration walks a single wordline through the paper's full read-path
// story: the default read fails, the error difference on the sentinel
// cells infers a near-optimal voltage, and — when the inference is off —
// the state-change comparison (NCa vs NCs/r) steers ±Δ calibration steps.
package main

import (
	"fmt"
	"log"

	"sentinel3d/internal/charlab"
	"sentinel3d/internal/experiments"
	"sentinel3d/internal/flash"
	"sentinel3d/internal/physics"
	"sentinel3d/internal/sentinel"
)

func main() {
	log.SetFlags(0)
	scale := experiments.Quick()

	model, err := scale.TrainModel(flash.QLC, 1)
	if err != nil {
		log.Fatal(err)
	}
	cfg := scale.ChipConfig(flash.QLC, 424)
	eng, err := scale.Engine(model, cfg)
	if err != nil {
		log.Fatal(err)
	}
	chip, err := scale.BuildEvalChip(flash.QLC, 424, eng, 2000, physics.YearHours)
	if err != nil {
		log.Fatal(err)
	}
	lab := charlab.New(chip)
	sv := model.SentinelVoltage
	cap := scale.CapModel(flash.QLC)
	userBits := cfg.UserCells()

	// Pick the wordline whose inference lands farthest from the truth
	// among those whose optimum is actually decodable — the interesting
	// calibration case.
	decodableAt := func(wl int, opt flash.Offsets) bool {
		read := chip.ReadPage(wl, chip.Coding().Bits()-1, opt, uint64(wl)+7777)
		truthBits := chip.TrueBits(wl, chip.Coding().Bits()-1)
		errs := make(flash.Bitmap, len(read))
		for i := range errs {
			errs[i] = read[i] ^ truthBits[i]
		}
		return cap.DecodePage(errs, userBits)
	}
	worstWL, worstGap := 0, -1.0
	for wl := 0; wl < cfg.WordlinesPerBlock(); wl++ {
		opt := lab.OptimalOffsets(wl)
		if !decodableAt(wl, opt) {
			continue
		}
		sense := chip.Sense(wl, sv, 0, uint64(wl)+9000)
		_, inf := eng.Infer(sense)
		gap := inf.Get(sv) - opt.Get(sv)
		if gap < 0 {
			gap = -gap
		}
		if gap > worstGap {
			worstGap, worstWL = gap, wl
		}
	}
	wl := worstWL
	truth := lab.OptimalOffsets(wl).Get(sv)
	fmt.Printf("wordline %d (layer %d): ground-truth optimal V%d offset = %.1f\n\n",
		wl, chip.LayerOf(wl), sv, truth)

	msb := chip.Coding().Bits() - 1
	pageErrs := func(o flash.Offsets, seed uint64) (int, bool) {
		read := chip.ReadPage(wl, msb, o, seed)
		truthBits := chip.TrueBits(wl, msb)
		errs := make(flash.Bitmap, len(read))
		for i := range errs {
			errs[i] = read[i] ^ truthBits[i]
		}
		n := 0
		for i := 0; i < userBits; i++ {
			if errs.Get(i) {
				n++
			}
		}
		return n, cap.DecodePage(errs, userBits)
	}

	// Step 0: default read.
	e0, ok0 := pageErrs(nil, 1)
	fmt.Printf("attempt 0 (defaults):        %4d raw errors, ECC %s\n", e0, okStr(ok0))
	if ok0 {
		fmt.Println("default read succeeded; nothing to calibrate on this block")
		return
	}

	// Step 1: inference from the failed read's sentinel errors.
	defSense := chip.Sense(wl, sv, 0, 2)
	d, inferred := eng.Infer(defSense)
	e1, ok1 := pageErrs(inferred, 3)
	fmt.Printf("attempt 1 (inferred):        %4d raw errors, ECC %s  "+
		"(d=%.4f -> V%d offset %.1f, truth %.1f)\n",
		e1, okStr(ok1), d, sv, inferred.Get(sv), truth)

	// Steps 2..: calibration while the read keeps failing.
	sentOfs := inferred.Get(sv)
	cur := inferred
	for step := 1; !ok1 && step <= eng.Cal.MaxSteps; step++ {
		curSense := chip.Sense(wl, sv, sentOfs, uint64(step)*31)
		nca := defSense.XorCount(curSense)
		ncs := 0
		for _, idx := range eng.Indices() {
			if defSense.Get(idx) != curSense.Get(idx) {
				ncs++
			}
		}
		caseName := "case 2 (overshoot, back off)"
		if float64(nca) > float64(ncs)/eng.Ratio() {
			caseName = "case 1 (undershoot, go further)"
		}
		sentOfs, cur = eng.CalibrationStep(sentOfs, defSense, curSense)
		var e int
		e, ok1 = pageErrs(cur, uint64(step)*97)
		fmt.Printf("attempt %d (calibrated):      %4d raw errors, ECC %s  "+
			"(NCa=%d, NCs/r=%.0f -> %s, V%d offset %.1f)\n",
			step+1, e, okStr(ok1), nca, float64(ncs)/eng.Ratio(), caseName,
			sv, sentOfs)
	}
	opt := lab.OptimalOffsets(wl)
	eOpt, _ := pageErrs(opt, 999)
	fmt.Printf("\nreference (true optimal voltages): %d raw errors\n", eOpt)

	_ = sentinel.DefaultCalibrator()
}

func okStr(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

package experiments

import (
	"fmt"
	"math"

	"sentinel3d/internal/charlab"
	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/parallel"
	"sentinel3d/internal/physics"
	"sentinel3d/internal/retry"
	"sentinel3d/internal/sentinel"
)

// ---------------------------------------------------------------------------
// Ablation: sentinel placement (tail-OOB vs spread).

// PlacementAblationResult compares inference accuracy under the paper's
// tail-OOB layout against an idealized spread layout.
type PlacementAblationResult struct {
	Kind flash.Kind
	// Mean |inferred - truth| per placement.
	TailMean, SpreadMean float64
	// Inference error on the high-gradient wordlines only (the failure
	// mode the calibration step exists for).
	TailGradMean, SpreadGradMean float64
}

// AblatePlacement quantifies the cost of the paper's tail-OOB placement:
// sentinels at the wordline tail misread wordlines with a spatial shift
// gradient, which evenly spread sentinels would sample correctly. The
// paper accepts the bias (the OOB is the only free space) and repairs it
// with calibration.
func AblatePlacement(s Scale, kind flash.Kind) (*PlacementAblationResult, error) {
	model, err := s.TrainModel(kind, 131)
	if err != nil {
		return nil, err
	}
	res := &PlacementAblationResult{Kind: kind}
	pe := 5000
	if kind == flash.QLC {
		pe = 1000
	}
	for _, placement := range []sentinel.Placement{sentinel.TailOOB, sentinel.Spread} {
		layout := sentinel.Layout{Ratio: s.SentinelRatio, Placement: placement}
		cfg := s.ChipConfig(kind, 231)
		eng, err := sentinel.NewEngine(model, layout, sentinel.DefaultCalibrator(), cfg)
		if err != nil {
			return nil, err
		}
		chip, err := s.BuildEvalChip(kind, 231, eng, pe, physics.YearHours)
		if err != nil {
			return nil, err
		}
		lab := charlab.New(chip)
		sv := model.SentinelVoltage
		type wlErr struct {
			e      float64
			isGrad bool
		}
		perWL := parallel.Map(cfg.WordlinesPerBlock(), func(wl int) wlErr {
			sense := chip.Sense(wl, sv, 0, mathx.Mix(0x13c, uint64(wl)))
			_, inferred := eng.Infer(sense)
			e := math.Abs(inferred.Get(sv) - lab.OptimalOffsets(wl).Get(sv))
			g := chip.Model().WLGradient(uint64(wl))
			return wlErr{e: e, isGrad: math.Abs(g) > chip.Model().P.GradientStd}
		})
		var all, grad []float64
		for _, w := range perWL {
			all = append(all, w.e)
			if w.isGrad {
				grad = append(grad, w.e)
			}
		}
		mean, gradMean := mathx.Mean(all), mathx.Mean(grad)
		if placement == sentinel.TailOOB {
			res.TailMean, res.TailGradMean = mean, gradMean
		} else {
			res.SpreadMean, res.SpreadGradMean = mean, gradMean
		}
	}
	return res, nil
}

// Render prints the comparison.
func (r *PlacementAblationResult) Render() string {
	return fmt.Sprintf("Ablation (%v): sentinel placement\n"+
		"  tail-OOB (paper): mean |inferred-truth| %.2f (high-gradient WLs: %.2f)\n"+
		"  spread (ideal):   mean |inferred-truth| %.2f (high-gradient WLs: %.2f)\n",
		r.Kind, r.TailMean, r.TailGradMean, r.SpreadMean, r.SpreadGradMean)
}

// ---------------------------------------------------------------------------
// Ablation: calibration step size.

// DeltaAblationRow is one calibration-step setting's outcome on the
// Figure 13 workload.
type DeltaAblationRow struct {
	Delta       float64
	MeanRetries float64
	Fails       int
}

// DeltaAblationResult sweeps the calibration step size.
type DeltaAblationResult struct {
	Rows []DeltaAblationRow
}

// AblateCalibrationDelta reruns the Figure 13 sentinel flow with
// different calibration step sizes, under an ECC capability tightened to
// the point where inference alone often fails and calibration must walk.
// Too small a Δ crawls toward distant optima; too large a Δ can straddle
// the ECC pass window.
func AblateCalibrationDelta(s Scale) (*DeltaAblationResult, error) {
	model, err := s.TrainModel(flash.TLC, 113)
	if err != nil {
		return nil, err
	}
	cfg := s.ChipConfig(flash.TLC, 213)
	// Tight capability: calibration has to engage.
	tight := s
	tight.TLCCapT = s.TLCCapT * 2 / 3
	res := &DeltaAblationResult{}
	for _, delta := range []float64{1, 2, 4, 8} {
		cal := sentinel.Calibrator{Delta: delta, MaxSteps: 6}
		eng, err := sentinel.NewEngine(model, s.Layout(), cal, cfg)
		if err != nil {
			return nil, err
		}
		chip, err := s.BuildEvalChip(flash.TLC, 213, eng, 5000, physics.YearHours)
		if err != nil {
			return nil, err
		}
		ctl, err := tight.Controller(chip, s.MaxRetries)
		if err != nil {
			return nil, err
		}
		pol := retry.NewSentinelPolicy(eng)
		msb := chip.Coding().Bits() - 1
		var sum float64
		fails := 0
		n := cfg.WordlinesPerBlock()
		for _, r := range parallel.Map(n, func(wl int) retry.Result {
			return ctl.Read(wl, msb, pol, mathx.Mix(0x13d, uint64(wl)))
		}) {
			sum += float64(r.Retries)
			if !r.OK {
				fails++
			}
		}
		res.Rows = append(res.Rows, DeltaAblationRow{
			Delta: delta, MeanRetries: sum / float64(n), Fails: fails,
		})
	}
	return res, nil
}

// Render prints the sweep.
func (r *DeltaAblationResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			F(row.Delta), fmt.Sprintf("%.2f", row.MeanRetries), fmt.Sprint(row.Fails),
		})
	}
	return "Ablation: calibration step size Δ (TLC Fig-13 workload)\n" +
		Table([]string{"delta", "mean retries", "unreadable"}, rows)
}

// ---------------------------------------------------------------------------
// Ablation: combined tracking + sentinel (the paper's Section V sketch).

// CombinedAblationResult compares first-read policies.
type CombinedAblationResult struct {
	SentinelRetries float64
	CombinedRetries float64
	SentinelFirstOK float64 // fraction of reads passing on attempt 0
	CombinedFirstOK float64
}

// AblateCombined measures the Section V extension: starting reads at the
// tracked voltages and falling back to sentinel inference.
func AblateCombined(s Scale) (*CombinedAblationResult, error) {
	tb, err := s.Testbed(flash.TLC, 113, 233, 5000, physics.YearHours)
	if err != nil {
		return nil, err
	}
	chip, ctl := tb.Chip, tb.Ctl
	sent := retry.NewSentinelPolicy(tb.Eng)
	combined := &retry.WarmStartPolicy{
		Start:    charlab.New(chip).OptimalOffsets(0),
		Sentinel: sent}
	res := &CombinedAblationResult{}
	msb := chip.Coding().Bits() - 1
	n := tb.Cfg.WordlinesPerBlock()
	type wlRead struct{ sent, combined retry.Result }
	for _, r := range parallel.Map(n, func(wl int) wlRead {
		return wlRead{
			sent:     ctl.Read(wl, msb, sent, mathx.Mix(0x13e, uint64(wl))),
			combined: ctl.Read(wl, msb, combined, mathx.Mix(0x13f, uint64(wl))),
		}
	}) {
		res.SentinelRetries += float64(r.sent.Retries)
		res.CombinedRetries += float64(r.combined.Retries)
		if r.sent.OK && r.sent.Retries == 0 {
			res.SentinelFirstOK++
		}
		if r.combined.OK && r.combined.Retries == 0 {
			res.CombinedFirstOK++
		}
	}
	res.SentinelRetries /= float64(n)
	res.CombinedRetries /= float64(n)
	res.SentinelFirstOK /= float64(n)
	res.CombinedFirstOK /= float64(n)
	return res, nil
}

// Render prints the comparison.
func (r *CombinedAblationResult) Render() string {
	return fmt.Sprintf("Ablation: tracking+sentinel combination (paper Section V)\n"+
		"  sentinel alone:    %.2f retries/read, %.0f%% first-read success\n"+
		"  tracking+sentinel: %.2f retries/read, %.0f%% first-read success\n",
		r.SentinelRetries, r.SentinelFirstOK*100,
		r.CombinedRetries, r.CombinedFirstOK*100)
}

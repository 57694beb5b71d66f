package experiments

import (
	"fmt"
	"math"

	"sentinel3d/internal/charlab"
	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/parallel"
	"sentinel3d/internal/physics"
	"sentinel3d/internal/sentinel"
)

// TempBandResult measures the value of per-temperature correlation tables
// (paper Section III-D): inference error at a hot read temperature with
// the room-temperature table versus the matching band's table.
type TempBandResult struct {
	ReadTempC float64
	// Mean per-voltage |inferred - truth| over the non-sentinel voltages,
	// with the room table and with the banded table.
	RoomTableErr float64
	BandTableErr float64
}

// TempBandExperiment trains a banded model, heats the evaluation chip's
// environment, and compares inference accuracy across all voltages under
// the two tables. The sentinel voltage itself is excluded (it is inferred
// directly from d either way); the bands matter for the *other* voltages.
func TempBandExperiment(s Scale) (*TempBandResult, error) {
	const hotC = 85
	// Train with explicit bands; the model cache key does not cover
	// bands, so train directly.
	chip, err := flash.New(s.ChipConfig(flash.QLC, 141))
	if err != nil {
		return nil, err
	}
	tc := s.trainConfig(141)
	tc.TempBandsC = []float64{45, 100}
	model, err := sentinel.Train(chip, tc)
	if err != nil {
		return nil, err
	}

	evalCfg := s.ChipConfig(flash.QLC, 241)
	eng, err := s.Engine(model, evalCfg)
	if err != nil {
		return nil, err
	}
	eval, err := s.BuildEvalChip(flash.QLC, 241, eng, 1000, physics.YearHours)
	if err != nil {
		return nil, err
	}
	eval.SetReadTemperature(0, hotC)
	lab := charlab.New(eval)
	sv := model.SentinelVoltage
	nv := eval.Coding().NumVoltages()

	res := &TempBandResult{ReadTempC: hotC}
	type wlErrs struct{ room, band []float64 }
	perWL := parallel.Map(evalCfg.WordlinesPerBlock(), func(wl int) wlErrs {
		truth := lab.OptimalOffsets(0, wl)
		sense := eval.Sense(0, wl, sv, 0, mathx.Mix(0x7b, uint64(wl)))
		d := sentinel.ErrorDiffRate(sense, eng.Indices())
		sentOfs := model.InferSentinelOffset(d)
		room := model.OffsetsFromSentinelAt(sentOfs, physics.RoomTempC)
		band := model.OffsetsFromSentinelAt(sentOfs, hotC)
		var out wlErrs
		for v := 2; v <= nv; v++ { // exclude V1 (erratic) and count sv too
			if v == sv {
				continue
			}
			out.room = append(out.room, math.Abs(room.Get(v)-truth.Get(v)))
			out.band = append(out.band, math.Abs(band.Get(v)-truth.Get(v)))
		}
		return out
	})
	var roomErrs, bandErrs []float64
	for _, w := range perWL {
		roomErrs = append(roomErrs, w.room...)
		bandErrs = append(bandErrs, w.band...)
	}
	res.RoomTableErr = mathx.Mean(roomErrs)
	res.BandTableErr = mathx.Mean(bandErrs)
	return res, nil
}

// Render prints the comparison.
func (r *TempBandResult) Render() string {
	return fmt.Sprintf("Temperature bands (paper Section III-D), read at %.0f C:\n"+
		"  room-temperature correlation table: mean per-voltage error %.2f\n"+
		"  matching hot-band table:            mean per-voltage error %.2f\n",
		r.ReadTempC, r.RoomTableErr, r.BandTableErr)
}

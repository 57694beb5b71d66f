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
)

// ---------------------------------------------------------------------------
// Figure 13: read retry counts, current flash vs sentinel.

// Fig13Result holds the per-wordline retry counts on the aged TLC block.
type Fig13Result struct {
	// Per-wordline MSB-page retry counts (the paper's most vulnerable
	// page).
	TableRetries    []int
	SentinelRetries []int
	TableFails      int
	SentinelFails   int
	TableLatencyUS  float64
	SentLatencyUS   float64
}

// Fig13RetryCount reproduces the paper's headline comparison: a TLC block
// at P/E 5000 with one-year retention, read wordline by wordline with the
// static vendor table versus the sentinel policy.
func Fig13RetryCount(s Scale) (*Fig13Result, error) {
	tb, err := s.Testbed(flash.TLC, 113, 213, 5000, physics.YearHours)
	if err != nil {
		return nil, err
	}
	table := retry.NewDefaultTable(tb.Chip, tableStep)
	sent := retry.NewSentinelPolicy(tb.Eng)
	res := &Fig13Result{}
	msb := tb.Chip.Coding().Bits() - 1
	type wlRead struct{ table, sent retry.Result }
	reads := parallel.Map(tb.Cfg.WordlinesPerBlock(), func(wl int) wlRead {
		return wlRead{
			table: tb.Ctl.Read(wl, msb, table, mathx.Mix(0x13a, uint64(wl))),
			sent:  tb.Ctl.Read(wl, msb, sent, mathx.Mix(0x13b, uint64(wl))),
		}
	})
	for _, r := range reads {
		res.TableRetries = append(res.TableRetries, r.table.Retries)
		res.SentinelRetries = append(res.SentinelRetries, r.sent.Retries)
		res.TableLatencyUS += r.table.Latency
		res.SentLatencyUS += r.sent.Latency
		if !r.table.OK {
			res.TableFails++
		}
		if !r.sent.OK {
			res.SentinelFails++
		}
	}
	return res, nil
}

// Averages returns the mean retry counts and the reduction fraction.
func (r *Fig13Result) Averages() (table, sentinel, reduction float64) {
	var ts, ss float64
	for i := range r.TableRetries {
		ts += float64(r.TableRetries[i])
		ss += float64(r.SentinelRetries[i])
	}
	n := float64(len(r.TableRetries))
	table, sentinel = ts/n, ss/n
	if table > 0 {
		reduction = 1 - sentinel/table
	}
	return table, sentinel, reduction
}

// Render prints the comparison.
func (r *Fig13Result) Render() string {
	t, se, red := r.Averages()
	return fmt.Sprintf("Fig 13 (TLC, P/E 5000, 1 yr): MSB read retries per wordline\n"+
		"  current flash: avg %.2f retries (%d unreadable)\n"+
		"  sentinel:      avg %.2f retries (%d unreadable)\n"+
		"  retry reduction: %.0f%% (paper: 82%%, 6.6 -> 1.2)\n"+
		"  latency reduction on this block: %.0f%%\n",
		t, r.TableFails, se, r.SentinelFails, red*100,
		100*(1-r.SentLatencyUS/r.TableLatencyUS))
}

// ---------------------------------------------------------------------------
// Figures 15-18: per-voltage error counts and inference success.

// ErrCompResult holds per-voltage, per-wordline error counts under the
// competing voltage-selection methods, covering Figures 15, 16, 17 and 18.
type ErrCompResult struct {
	Kind flash.Kind
	// Errors[method][v-1][wl]; methods indexed by the Method* constants.
	Errors [4][][]int
	// TrackingErrors[v-1][wl] for the Figure 18 baseline.
	TrackingErrors [][]int
}

// Method indices into ErrCompResult.Errors.
const (
	MethodDefault = iota
	MethodInferred
	MethodCalibrated
	MethodOptimal
)

// ErrorComparison ages a block (TLC: P/E 5000; QLC: P/E 1000; one year)
// and measures the error count of every read voltage per wordline under
// default, inferred, calibrated, tracked, and optimal offsets.
func ErrorComparison(s Scale, kind flash.Kind) (*ErrCompResult, error) {
	pe := 5000
	if kind == flash.QLC {
		pe = 1000
	}
	tb, err := s.Testbed(kind, 116, 216, pe, physics.YearHours)
	if err != nil {
		return nil, err
	}
	chip, eng := tb.Chip, tb.Eng
	lab := charlab.New(chip)
	sent := retry.NewSentinelPolicy(eng)
	tracked := lab.OptimalOffsets(0)

	nv := chip.Coding().NumVoltages()
	res := &ErrCompResult{Kind: kind}
	msb := chip.Coding().Bits() - 1
	sv := eng.Model.SentinelVoltage
	nwl := tb.Cfg.WordlinesPerBlock()
	for m := range res.Errors {
		res.Errors[m] = make([][]int, nv)
		for v := 0; v < nv; v++ {
			res.Errors[m][v] = make([]int, nwl)
		}
	}
	res.TrackingErrors = make([][]int, nv)
	for v := 0; v < nv; v++ {
		res.TrackingErrors[v] = make([]int, nwl)
	}
	parallel.ForEach(nwl, func(wl int) {
		optimal := lab.OptimalOffsets(wl)
		sense := chip.Sense(wl, sv, 0, mathx.Mix(0x15a, uint64(wl)))
		_, inferred := eng.Infer(sense)
		// Calibrated = the offsets the full read flow ends at. When the
		// read fails outright, the controller reverts to the inferred
		// voltages (the best information it holds), so measure those.
		rr := tb.Ctl.Read(wl, msb, sent, mathx.Mix(0x15b, uint64(wl)))
		calibrated := rr.FinalOffsets
		if calibrated == nil || !rr.OK {
			calibrated = inferred
		}
		sets := [4]flash.Offsets{nil, inferred, calibrated, optimal}
		for v := 1; v <= nv; v++ {
			for m, ofs := range sets {
				up, down := chip.VoltageErrors(wl, v, ofs.Get(v),
					mathx.Mix4(0x15c, uint64(wl), uint64(v), uint64(m)))
				res.Errors[m][v-1][wl] = up + down
			}
			up, down := chip.VoltageErrors(wl, v, tracked.Get(v),
				mathx.Mix4(0x15d, uint64(wl), uint64(v), 9))
			res.TrackingErrors[v-1][wl] = up + down
		}
	})
	return res, nil
}

// SuccessRates returns, per voltage, the fraction of wordlines whose
// error count under the method is within 5% of the optimal count (plus a
// Poisson noise allowance), i.e. the paper's Figure 15 metric.
func (r *ErrCompResult) SuccessRates(method int) []float64 {
	nv := len(r.Errors[MethodOptimal])
	out := make([]float64, nv)
	for v := 0; v < nv; v++ {
		n := len(r.Errors[method][v])
		ok := 0
		for wl := 0; wl < n; wl++ {
			opt := float64(r.Errors[MethodOptimal][v][wl])
			got := float64(r.Errors[method][v][wl])
			if got <= float64(opt*1.05)+float64(2*math.Sqrt(opt+1)) {
				ok++
			}
		}
		out[v] = float64(ok) / float64(n)
	}
	return out
}

// MeanErrors returns the per-voltage mean error count for a method.
func (r *ErrCompResult) MeanErrors(method int) []float64 {
	return meanPerVoltage(r.Errors[method])
}

// MeanTrackingErrors returns the per-voltage mean error count under the
// tracking baseline.
func (r *ErrCompResult) MeanTrackingErrors() []float64 {
	return meanPerVoltage(r.TrackingErrors)
}

func meanPerVoltage(series [][]int) []float64 {
	out := make([]float64, len(series))
	for v, col := range series {
		s := 0
		for _, e := range col {
			s += e
		}
		if len(col) > 0 {
			out[v] = float64(s) / float64(len(col))
		}
	}
	return out
}

// Render prints Figures 15-18 in text form.
func (r *ErrCompResult) Render() string {
	nv := len(r.Errors[MethodOptimal])
	infRates := r.SuccessRates(MethodInferred)
	calRates := r.SuccessRates(MethodCalibrated)
	rows := make([][]string, 0, nv)
	meanD := r.MeanErrors(MethodDefault)
	meanI := r.MeanErrors(MethodInferred)
	meanC := r.MeanErrors(MethodCalibrated)
	meanO := r.MeanErrors(MethodOptimal)
	meanT := r.MeanTrackingErrors()
	for v := 1; v <= nv; v++ {
		rows = append(rows, []string{
			fmt.Sprintf("V%d", v),
			F(meanD[v-1]), F(meanI[v-1]), F(meanC[v-1]), F(meanT[v-1]), F(meanO[v-1]),
			Pct(infRates[v-1]), Pct(calRates[v-1]),
		})
	}
	return fmt.Sprintf("Figs 15-18 (%v): per-voltage mean errors and success rates\n", r.Kind) +
		Table([]string{"voltage", "default", "inferred", "calibrated", "tracking",
			"optimal", "success(inf)", "success(cal)"}, rows)
}

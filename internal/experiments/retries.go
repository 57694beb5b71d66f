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

// Result reports the mean retry counts, their reduction and the
// block's latency reduction.
func (r *Fig13Result) Result() Result {
	var ts, ss float64
	for i := range r.TableRetries {
		ts += float64(r.TableRetries[i])
		ss += float64(r.SentinelRetries[i])
	}
	n := float64(len(r.TableRetries))
	table, sent := ts/n, ss/n
	var reduction float64
	if table > 0 {
		reduction = 1 - sent/table
	}
	return Result{
		Title: "Fig 13 (TLC, P/E 5000, 1 yr): MSB read retries per wordline",
		Headlines: []Headline{
			{Name: "current flash retries", Value: table, Unit: "retries", Paper: paper(6.6)},
			{Name: "current flash unreadable", Value: float64(r.TableFails), Unit: "wordlines"},
			{Name: "sentinel retries", Value: sent, Unit: "retries", Paper: paper(1.2)},
			{Name: "sentinel unreadable", Value: float64(r.SentinelFails), Unit: "wordlines"},
			{Name: "retry reduction", Value: reduction, Unit: "%", Paper: paper(0.82)},
			{Name: "latency reduction on this block", Value: 1 - r.SentLatencyUS/r.TableLatencyUS, Unit: "%"},
		},
	}
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
	tb, err := s.Testbed(kind, 116, 216, agedPE(kind), physics.YearHours)
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

// successRates returns, per voltage, the fraction of wordlines whose
// error count under the method is within 5% of the optimal count (plus a
// Poisson noise allowance), i.e. the paper's Figure 15 metric.
func (r *ErrCompResult) successRates(method int) []float64 {
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

// meanPerVoltage returns the per-voltage mean of per-wordline counts.
func meanPerVoltage(series [][]int) []float64 {
	out := make([]float64, len(series))
	for v, col := range series {
		s := 0
		for _, e := range col {
			s += e
		}
		out[v] = float64(s) / float64(max(len(col), 1))
	}
	return out
}

// Result reports Figures 15-18 as one per-voltage table.
func (r *ErrCompResult) Result() Result {
	nv := len(r.Errors[MethodOptimal])
	infRates := r.successRates(MethodInferred)
	calRates := r.successRates(MethodCalibrated)
	rows := make([][]string, 0, nv)
	meanD := meanPerVoltage(r.Errors[MethodDefault])
	meanI := meanPerVoltage(r.Errors[MethodInferred])
	meanC := meanPerVoltage(r.Errors[MethodCalibrated])
	meanO := meanPerVoltage(r.Errors[MethodOptimal])
	meanT := meanPerVoltage(r.TrackingErrors)
	for v := 1; v <= nv; v++ {
		rows = append(rows, []string{fmt.Sprintf("V%d", v),
			F(meanD[v-1]), F(meanI[v-1]), F(meanC[v-1]), F(meanT[v-1]), F(meanO[v-1]),
			Pct(infRates[v-1]), Pct(calRates[v-1])})
	}
	return tableResult(fmt.Sprintf("Figs 15-18 (%v): per-voltage mean errors and success rates", r.Kind),
		[]string{"voltage", "default", "inferred", "calibrated", "tracking",
			"optimal", "success(inf)", "success(cal)"}, rows)
}

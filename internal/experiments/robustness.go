package experiments

import (
	"fmt"

	"sentinel3d/internal/fault"
	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/parallel"
	"sentinel3d/internal/physics"
	"sentinel3d/internal/retry"
)

// ---------------------------------------------------------------------------
// Robustness: sentinel-region corruption sweep.

// RobustnessRow holds the three policies' outcomes at one corruption rate.
type RobustnessRow struct {
	// Rate is the fraction of sentinel-region cells stuck high.
	Rate float64
	// Mean MSB retries per wordline under each policy.
	TableRetries    float64
	BareRetries     float64
	FallbackRetries float64
	// Unreadable wordlines under each policy.
	TableFails    int
	BareFails     int
	FallbackFails int
	// FallbackDegradedReads counts wordlines the fallback policy served
	// from the static table (chip probe or per-read guard).
	FallbackDegradedReads int
	// BlockDegraded reports whether the coordinator-side probe latched the
	// block into degraded mode before the reads.
	BlockDegraded bool
	// StuckEstimate is the stuck fraction the probe measured.
	StuckEstimate float64
}

// RobustnessResult holds the sweep, one row per corruption rate.
type RobustnessResult struct {
	Rows []RobustnessRow
}

// CorruptionSweep measures graceful degradation of the read stack: an aged
// TLC block (P/E 5000, one year) whose sentinel region is corrupted by a
// growing fraction of stuck-high cells, read with the static vendor table,
// the bare sentinel policy, and the sentinel policy wrapped in the fallback
// guard. The bare policy's inference collapses as the corruption grows; the
// fallback must never do worse than the static table at any rate.
//
// All three policies read each wordline with the same read seed, and the
// per-wordline fan-out uses index-addressed slots, so the result is
// byte-identical at any worker count.
func CorruptionSweep(s Scale) (*RobustnessResult, error) {
	tb, err := s.Testbed(flash.TLC, 117, 217, 5000, physics.YearHours)
	if err != nil {
		return nil, err
	}
	cfg, eng, chip, ctl := tb.Cfg, tb.Eng, tb.Chip, tb.Ctl
	table := retry.NewDefaultTable(chip, tableStep)
	bare := retry.NewSentinelPolicy(eng)
	// The sentinels live at the tail of the wordline; corrupt exactly that
	// region.
	region := [2]int{cfg.CellsPerWordline - len(eng.Indices()), cfg.CellsPerWordline}
	msb := chip.Coding().Bits() - 1
	nwl := cfg.WordlinesPerBlock()
	res := &RobustnessResult{}
	for i, rate := range []float64{0, 0.02, 0.04, 0.06, 0.08, 0.10} {
		if rate == 0 {
			chip.SetFaults(nil)
		} else {
			chip.SetFaults(fault.MustNew(fault.Profile{
				Seed:              mathx.Mix(0xb0b, uint64(i)),
				SentinelStuckRate: rate,
				SentinelRegion:    region,
				StuckHighFraction: 1,
			}))
		}
		fb := retry.NewFallback(retry.NewSentinelPolicy(eng), table)
		stuck := fb.Probe(chip, 0) // coordinator-side, before fan-out
		type wlRead struct{ table, bare, fb retry.Result }
		reads := parallel.Map(nwl, func(wl int) wlRead {
			seed := mathx.Mix3(0xc0c, uint64(i), uint64(wl))
			return wlRead{
				table: ctl.Read(wl, msb, table, seed),
				bare:  ctl.Read(wl, msb, bare, seed),
				fb:    ctl.Read(wl, msb, fb, seed),
			}
		})
		row := RobustnessRow{
			Rate:          rate,
			BlockDegraded: fb.Degraded(),
			StuckEstimate: stuck,
		}
		for _, r := range reads {
			row.TableRetries += float64(r.table.Retries)
			row.BareRetries += float64(r.bare.Retries)
			row.FallbackRetries += float64(r.fb.Retries)
			if !r.table.OK {
				row.TableFails++
			}
			if !r.bare.OK {
				row.BareFails++
			}
			if !r.fb.OK {
				row.FallbackFails++
			}
			if r.fb.UsedFallback {
				row.FallbackDegradedReads++
			}
		}
		row.TableRetries /= float64(nwl)
		row.BareRetries /= float64(nwl)
		row.FallbackRetries /= float64(nwl)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Result reports the sweep as a table.
func (r *RobustnessResult) Result() Result {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{Pct(row.Rate),
			F(row.TableRetries), F(row.BareRetries), F(row.FallbackRetries),
			fmt.Sprint(row.TableFails), fmt.Sprint(row.BareFails), fmt.Sprint(row.FallbackFails),
			fmt.Sprint(row.FallbackDegradedReads), fmt.Sprint(row.BlockDegraded), F(row.StuckEstimate)})
	}
	return tableResult("Robustness (TLC, P/E 5000, 1 yr): MSB retries vs sentinel corruption",
		[]string{"corrupt", "table", "bare-sent", "fallback", "tblFail",
			"bareFail", "fbFail", "fbDegraded", "probeTrip", "probeFrac"}, rows)
}

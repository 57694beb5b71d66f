package experiments

import (
	"fmt"

	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/parallel"
	"sentinel3d/internal/physics"
	"sentinel3d/internal/trace"
)

// ---------------------------------------------------------------------------
// Figure 14: trace-driven read-latency reduction.

// Fig14Row is one workload's outcome.
type Fig14Row struct {
	Workload      string
	BaselineUS    float64
	SentinelUS    float64
	Reduction     float64 // fraction
	BaselineP99US float64
	SentinelP99US float64
}

// Fig14Result holds all workloads.
type Fig14Result struct {
	Rows []Fig14Row
	// Mean retry counts measured on the chip, per policy (MSB page).
	TableMSBRetries float64
	SentMSBRetries  float64
}

// Fig14TraceLatency builds retry-outcome distributions for the current
// flash and sentinel policies on the aged TLC chip, then replays the
// eight MSR-like workloads through the SSD simulator under each.
func Fig14TraceLatency(s Scale, requests int) (*Fig14Result, error) {
	tb, err := s.Testbed(flash.TLC, 114, 214, 5000, physics.YearHours)
	if err != nil {
		return nil, err
	}
	wls := tb.spreadWLs()
	baseSampler, err := tb.Sampler("table", wls, 0x14a)
	if err != nil {
		return nil, err
	}
	sentSampler, err := tb.Sampler("sentinel", wls, 0x14b)
	if err != nil {
		return nil, err
	}

	simCfg := TraceDevice()
	res := &Fig14Result{
		TableMSBRetries: baseSampler.MeanRetries(2),
		SentMSBRetries:  sentSampler.MeanRetries(2),
	}
	// Each workload replays through its own pair of simulator instances;
	// the samplers are shared but read-only during runs. Fan out across
	// workloads and keep Rows in workload order.
	specs := trace.MSRWorkloads()
	rows, err := parallel.MapErr(len(specs), func(i int) (Fig14Row, error) {
		spec := paperWorkload(specs[i])
		// The trace streams from the generator twice (precondition pass,
		// replay pass) instead of being materialized.
		open := trace.GeneratorOpener(spec, requests, mathx.Mix(0x14c, uint64(len(spec.Name))))
		base, err := replayTrace(simCfg, baseSampler, open, s.Obs)
		if err != nil {
			return Fig14Row{}, err
		}
		sentRep, err := replayTrace(simCfg, sentSampler, open, s.Obs)
		if err != nil {
			return Fig14Row{}, err
		}
		row := Fig14Row{
			Workload:      spec.Name,
			BaselineUS:    base.MeanReadUS,
			SentinelUS:    sentRep.MeanReadUS,
			BaselineP99US: base.P99ReadUS,
			SentinelP99US: sentRep.P99ReadUS,
		}
		if base.MeanReadUS > 0 {
			row.Reduction = 1 - sentRep.MeanReadUS/base.MeanReadUS
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// Result reports the per-workload reductions and their mean.
func (r *Fig14Result) Result() Result {
	rows := make([][]string, 0, len(r.Rows))
	var sum float64
	for _, row := range r.Rows {
		sum += row.Reduction
		rows = append(rows, []string{row.Workload,
			fmt.Sprintf("%.0f", row.BaselineUS), fmt.Sprintf("%.0f", row.SentinelUS), Pct(row.Reduction),
			fmt.Sprintf("%.0f", row.BaselineP99US), fmt.Sprintf("%.0f", row.SentinelP99US)})
	}
	mean := sum / float64(max(len(r.Rows), 1))
	return Result{
		Title: "Fig 14: trace-driven read latency",
		Headlines: []Headline{
			{Name: "chip MSB retries, current flash", Value: r.TableMSBRetries, Unit: "retries"},
			{Name: "chip MSB retries, sentinel", Value: r.SentMSBRetries, Unit: "retries"},
			{Name: "mean read-latency reduction", Value: mean, Unit: "%", Paper: paper(0.74)},
		},
		Tables: []Table{{Header: []string{"workload", "base µs", "sentinel µs", "reduction",
			"base p99", "sentinel p99"}, Rows: rows}},
	}
}

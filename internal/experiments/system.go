package experiments

import (
	"fmt"

	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/parallel"
	"sentinel3d/internal/physics"
	"sentinel3d/internal/retry"
	"sentinel3d/internal/ssdsim"
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
	if requests <= 0 {
		requests = 6000
	}
	tb, err := s.Testbed(flash.TLC, 114, 214, 5000, physics.YearHours)
	if err != nil {
		return nil, err
	}
	wls := tb.spreadWLs()
	baseSampler, err := ssdsim.BuildSampler(tb.Ctl, retry.NewDefaultTable(tb.Chip, s.TableStep), 0, wls, 3, 0x14a)
	if err != nil {
		return nil, err
	}
	sentSampler, err := ssdsim.BuildSampler(tb.Ctl, retry.NewSentinelPolicy(tb.Eng), 0, wls, 3, 0x14b)
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
		spec := specs[i]
		spec.WorkingSetPages = int64(simCfg.Geo.PagesTotal()) * 6 / 10
		// The MSR volumes are light relative to an SSD's capability (the
		// paper's SSDSim runs show latency ratios near the device-level
		// retry ratio, i.e. negligible queueing); scale the arrival rate
		// down accordingly.
		spec.MeanIATUS *= 6
		// Replay through a single-shard engine with exact latency
		// collection; the trace streams from the generator twice
		// (precondition pass, replay pass) instead of being materialized.
		open := trace.GeneratorOpener(spec, requests, mathx.Mix(0x14c, uint64(len(spec.Name))))
		run := func(sampler ssdsim.RetrySampler) (*ssdsim.Report, error) {
			eng, err := ssdsim.NewEngine(ssdsim.ReplayConfig{
				Sim: simCfg, CollectLatencies: true, Precondition: true,
				Metrics: s.Obs,
			}, sampler)
			if err != nil {
				return nil, err
			}
			return eng.Replay(open)
		}
		base, err := run(baseSampler)
		if err != nil {
			return Fig14Row{}, err
		}
		sentRep, err := run(sentSampler)
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

// MeanReduction returns the average read-latency reduction across
// workloads.
func (r *Fig14Result) MeanReduction() float64 {
	var s float64
	for _, row := range r.Rows {
		s += row.Reduction
	}
	if len(r.Rows) == 0 {
		return 0
	}
	return s / float64(len(r.Rows))
}

// Render prints the per-workload reductions.
func (r *Fig14Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Workload,
			fmt.Sprintf("%.0f", row.BaselineUS),
			fmt.Sprintf("%.0f", row.SentinelUS),
			Pct(row.Reduction),
			fmt.Sprintf("%.0f", row.BaselineP99US),
			fmt.Sprintf("%.0f", row.SentinelP99US),
		})
	}
	return fmt.Sprintf("Fig 14: trace-driven read latency (chip MSB retries: "+
		"current flash %.2f, sentinel %.2f)\n", r.TableMSBRetries, r.SentMSBRetries) +
		Table([]string{"workload", "base µs", "sentinel µs", "reduction",
			"base p99", "sentinel p99"}, rows) +
		fmt.Sprintf("mean read-latency reduction: %s (paper: 74%%)\n",
			Pct(r.MeanReduction()))
}

package experiments

import (
	"fmt"
	"slices"

	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/parallel"
	"sentinel3d/internal/physics"
	"sentinel3d/internal/ssdsim"
	"sentinel3d/internal/trace"
)

// ---------------------------------------------------------------------------
// Adaptive first-shot reads: sentinel vs AR² vs warm-start offsets.

// adaptivePolicies is the comparison set, in table order.
var adaptivePolicies = []string{"table", "sentinel", "ar2", "history", "sentinel+history"}

// AdaptiveCell is one (workload, policy) replay outcome.
type AdaptiveCell struct {
	Workload string
	Policy   string
	// SensesPerRead is the mean flash sensing operations per mapped page
	// read: attempts (1 + retries) plus auxiliary single-voltage senses.
	SensesPerRead float64
	MeanReadUS    float64
	P99ReadUS     float64
	// SimReqPerSec is the device's simulated throughput for the cell:
	// requests serviced over the simulated makespan. Unlike wall-clock
	// req/s it depends on the policy's retry distribution, so it is the
	// number the warm-start speedup claim is made on.
	SimReqPerSec float64
}

// AdaptiveResult holds the full trace-matrix comparison.
type AdaptiveResult struct {
	Requests int
	// MSBPoolSenses is each policy's mean senses-per-read over the MSB
	// sampler pool — the chip-level view, before any workload mix.
	MSBPoolSenses []float64
	// Cells is workload-major, adaptivePolicies order within a workload.
	Cells []AdaptiveCell
	// Violations counts trace cells where sentinel+history needed more
	// senses per read than sentinel alone (the acceptance criterion is
	// zero).
	Violations int
}

// sensesPerRead is a replay's mean sensing operations per flash page
// read: attempts (1 + retries) plus auxiliary senses, over every draw.
func sensesPerRead(rep *ssdsim.Report) float64 {
	if rep.FlashReads == 0 {
		return 0
	}
	return float64(rep.FlashReads+rep.TotalRetries+rep.AuxSenses) / float64(rep.FlashReads)
}

// Adaptive benchmarks the adaptive read stack across the MSR-like trace
// matrix: the static table and plain sentinel baselines against AR²
// (pipelined table stepping), history (first shot from sentinel-inferred
// start offsets, table walk beyond) and sentinel+history (the same first
// shot, sentinel recovery). Retry-outcome pools are sampled per policy
// on the aged TLC chip, and every workload replays the identical trace
// under each pool, measuring senses-per-read, latency and simulated
// device throughput.
func Adaptive(s Scale, requests int) (*AdaptiveResult, error) {
	tb, err := s.Testbed(flash.TLC, 114, 214, 5000, physics.YearHours)
	if err != nil {
		return nil, err
	}
	wls := tb.spreadWLs()
	samplers := make(map[string]*ssdsim.EmpiricalSampler, len(adaptivePolicies))
	for i, name := range adaptivePolicies {
		sampler, err := tb.Sampler(name, wls, 0xad0+uint64(i))
		if err != nil {
			return nil, err
		}
		samplers[name] = sampler
	}

	simCfg := TraceDevice()
	res := &AdaptiveResult{Requests: requests}
	msb := tb.Chip.Coding().Bits() - 1
	for _, name := range adaptivePolicies {
		pool := samplers[name]
		res.MSBPoolSenses = append(res.MSBPoolSenses,
			1+pool.MeanRetries(msb)+meanAux(pool, msb))
	}
	// Every workload replays the identical materialized trace under each
	// policy's pool; workloads fan out, rows stay in workload order.
	specs := trace.MSRWorkloads()
	rows, err := parallel.MapErr(len(specs), func(i int) ([]AdaptiveCell, error) {
		spec := paperWorkload(specs[i])
		reqs, err := trace.Generate(spec, requests, mathx.Mix(0xada, uint64(len(spec.Name))))
		if err != nil {
			return nil, err
		}
		// The paced trace measures latency; arrivals dominate its makespan,
		// so device throughput is measured on a saturated burst (every
		// request at t=0) where the makespan is pure service capacity.
		burst := slices.Clone(reqs)
		for j := range burst {
			burst[j].ArriveUS = 0
		}
		cells := make([]AdaptiveCell, 0, len(adaptivePolicies))
		for _, name := range adaptivePolicies {
			rep, err := replayTrace(simCfg, samplers[name], trace.SliceOpener(reqs), nil)
			if err != nil {
				return nil, err
			}
			cell := AdaptiveCell{
				Workload:   spec.Name,
				Policy:     name,
				MeanReadUS: rep.MeanReadUS,
				P99ReadUS:  rep.P99ReadUS,
			}
			cell.SensesPerRead = sensesPerRead(rep)
			brep, err := replayTrace(simCfg, samplers[name], trace.SliceOpener(burst), nil)
			if err != nil {
				return nil, err
			}
			if mk := brep.MakespanUS; mk > 0 {
				cell.SimReqPerSec = float64(brep.Requests) / (mk * 1e-6)
			}
			cells = append(cells, cell)
		}
		return cells, nil
	})
	if err != nil {
		return nil, err
	}
	for _, cells := range rows {
		res.Cells = append(res.Cells, cells...)
	}
	for w := 0; w < len(res.Cells); w += len(adaptivePolicies) {
		group := res.Cells[w : w+len(adaptivePolicies)]
		if cellOf(group, "sentinel+history").SensesPerRead > cellOf(group, "sentinel").SensesPerRead {
			res.Violations++
		}
	}
	return res, nil
}

// meanAux returns the mean auxiliary-sense count of page type p's pool.
func meanAux(e *ssdsim.EmpiricalSampler, p int) float64 {
	pool := e.PerPage[p]
	if len(pool) == 0 {
		return 0
	}
	s := 0
	for _, o := range pool {
		s += o.AuxSenses
	}
	return float64(s) / float64(len(pool))
}

// cellOf picks the named policy's cell from one workload's group, whose
// cells are built in adaptivePolicies order.
func cellOf(group []AdaptiveCell, policy string) *AdaptiveCell {
	return &group[slices.Index(adaptivePolicies, policy)]
}

// Result reports the MSB pool costs, the acceptance count, the history
// policy's mean simulated-throughput ratio over plain sentinel, and the
// senses-per-read and latency matrices.
func (r *AdaptiveResult) Result() Result {
	np := len(adaptivePolicies)
	header := append([]string{"workload"}, adaptivePolicies...)
	senses := Table{Title: "mean senses per mapped page read", Header: header}
	lat := Table{Title: "mean read latency, µs", Header: header}
	var speedup float64
	var n int
	for w := 0; w < len(r.Cells); w += np {
		group := r.Cells[w : w+np]
		srow := []string{group[0].Workload}
		lrow := []string{group[0].Workload}
		for _, c := range group {
			srow = append(srow, fmt.Sprintf("%.3f", c.SensesPerRead))
			lrow = append(lrow, fmt.Sprintf("%.0f", c.MeanReadUS))
		}
		senses.Rows = append(senses.Rows, srow)
		lat.Rows = append(lat.Rows, lrow)
		if s := cellOf(group, "sentinel").SimReqPerSec; s > 0 {
			speedup += cellOf(group, "history").SimReqPerSec / s
			n++
		}
	}
	speedup /= float64(max(n, 1))
	var heads []Headline
	for i, name := range adaptivePolicies {
		heads = append(heads, Headline{Name: "MSB pool senses/read, " + name, Value: r.MSBPoolSenses[i]})
	}
	heads = append(heads,
		Headline{Name: "cells where sentinel+history senses more than sentinel", Value: float64(r.Violations), Unit: "cells"},
		Headline{Name: "history/sentinel simulated throughput, mean over workloads", Value: speedup, Unit: "x"})
	return Result{
		Title:     fmt.Sprintf("adaptive first-shot reads: %d requests/workload (aged TLC chip)", r.Requests),
		Headlines: heads,
		Tables:    []Table{senses, lat},
	}
}

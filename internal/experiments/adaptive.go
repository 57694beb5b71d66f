package experiments

import (
	"fmt"

	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/parallel"
	"sentinel3d/internal/physics"
	"sentinel3d/internal/ssdsim"
	"sentinel3d/internal/trace"
)

// ---------------------------------------------------------------------------
// Adaptive first-shot reads: sentinel vs AR² vs offset-history cache.

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
	// number the history-cache speedup claim is made on.
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

// replayTrace replays a materialized trace on one preconditioned device
// with exact latency collection.
func replayTrace(cfg ssdsim.Config, sampler ssdsim.RetrySampler, reqs []trace.Request) (*ssdsim.Report, error) {
	eng, err := ssdsim.NewEngine(ssdsim.ReplayConfig{
		Sim: cfg, Shards: 1, CollectLatencies: true, Precondition: true,
	}, sampler)
	if err != nil {
		return nil, err
	}
	return eng.Replay(trace.SliceOpener(reqs))
}

// Adaptive benchmarks the adaptive read stack across the MSR-like trace
// matrix: the static table and plain sentinel baselines against AR²
// (pipelined table stepping), the offset-history cache (first shot from
// the block's last-known-good offsets) and the sentinel-seeded cache
// combination. Retry-outcome pools are sampled per policy on the aged
// TLC chip — the history caches deterministically warmed from sentinel
// inference and frozen — and every workload replays the identical trace
// under each pool, measuring senses-per-read, latency and simulated
// device throughput.
func Adaptive(s Scale, requests int) (*AdaptiveResult, error) {
	if requests <= 0 {
		requests = 6000
	}
	tb, err := s.Testbed(flash.TLC, 114, 214, 5000, physics.YearHours)
	if err != nil {
		return nil, err
	}
	wls := tb.spreadWLs()
	samplers := make(map[string]*ssdsim.EmpiricalSampler, len(adaptivePolicies))
	for i, name := range adaptivePolicies {
		pol, err := tb.Policy(name)
		if err != nil {
			return nil, err
		}
		sampler, err := ssdsim.BuildSampler(tb.Ctl, pol, 0, wls, 3, 0xad0+uint64(i))
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
		spec := specs[i]
		spec.WorkingSetPages = int64(simCfg.Geo.PagesTotal()) * 6 / 10
		spec.MeanIATUS *= 6
		reqs, err := trace.Generate(spec, requests, mathx.Mix(0xada, uint64(len(spec.Name))))
		if err != nil {
			return nil, err
		}
		// The paced trace measures latency; arrivals dominate its makespan,
		// so device throughput is measured on a saturated burst (every
		// request at t=0) where the makespan is pure service capacity.
		burst := make([]trace.Request, len(reqs))
		copy(burst, reqs)
		for j := range burst {
			burst[j].ArriveUS = 0
		}
		cells := make([]AdaptiveCell, 0, len(adaptivePolicies))
		for _, name := range adaptivePolicies {
			rep, err := replayTrace(simCfg, samplers[name], reqs)
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
			brep, err := replayTrace(simCfg, samplers[name], burst)
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

// cellOf picks the named policy's cell from one workload's group.
func cellOf(group []AdaptiveCell, policy string) *AdaptiveCell {
	for i := range group {
		if group[i].Policy == policy {
			return &group[i]
		}
	}
	return &AdaptiveCell{}
}

// HistorySpeedup returns the mean simulated-throughput ratio of the
// history policy over plain sentinel across workloads.
func (r *AdaptiveResult) HistorySpeedup() float64 {
	var sum float64
	var n int
	for w := 0; w < len(r.Cells); w += len(adaptivePolicies) {
		group := r.Cells[w : w+len(adaptivePolicies)]
		s := cellOf(group, "sentinel").SimReqPerSec
		h := cellOf(group, "history").SimReqPerSec
		if s > 0 {
			sum += h / s
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Render prints the senses-per-read and latency matrices plus the
// acceptance lines.
func (r *AdaptiveResult) Render() string {
	np := len(adaptivePolicies)
	header := append([]string{"workload"}, adaptivePolicies...)
	var senseRows, latRows [][]string
	for w := 0; w < len(r.Cells); w += np {
		group := r.Cells[w : w+np]
		srow := []string{group[0].Workload}
		lrow := []string{group[0].Workload}
		for _, c := range group {
			srow = append(srow, fmt.Sprintf("%.3f", c.SensesPerRead))
			lrow = append(lrow, fmt.Sprintf("%.0f", c.MeanReadUS))
		}
		senseRows = append(senseRows, srow)
		latRows = append(latRows, lrow)
	}
	pool := "MSB pool senses/read:"
	for i, name := range adaptivePolicies {
		pool += fmt.Sprintf(" %s %.2f", name, r.MSBPoolSenses[i])
	}
	ok := "yes"
	if r.Violations > 0 {
		ok = fmt.Sprintf("NO (%d cells)", r.Violations)
	}
	return fmt.Sprintf("adaptive first-shot reads: %d requests/workload (aged TLC chip)\n%s\n\n", r.Requests, pool) +
		"mean senses per mapped page read:\n" + Table(header, senseRows) +
		"\nmean read latency, µs:\n" + Table(header, latRows) +
		fmt.Sprintf("\nsentinel+history <= sentinel on every cell: %s\n", ok) +
		fmt.Sprintf("history vs sentinel simulated throughput: %.2fx (mean across workloads)\n",
			r.HistorySpeedup())
}

// Command tracesim replays block I/O traces against the SSD simulator,
// comparing read latency across retry policies — by default the
// current-flash table baseline and the sentinel policy (the paper's
// Figure 14 pipeline, usable with either the built-in synthetic MSR-like
// workloads or a real MSR-format CSV file). It is a thin front-end over
// internal/scenario: each (workload, policy) pair is one replay cell, and
// the expensive chip preconditioning is shared across all of them by the
// matrix runner.
//
// Examples:
//
//	tracesim -workload hm_0 -requests 20000
//	tracesim -trace volume.csv
//	tracesim -workload all
//	tracesim -workload hm_0 -fault-stuck 0.08 -fault-pe 0.0005 -policies table,sentinel,fallback
//	tracesim -workload hm_0 -requests 2000000 -stream -shards 4 -workers 4
//	tracesim -workload hm_0 -metrics - -slow slow.jsonl
//	tracesim -workload all -debug-addr 127.0.0.1:6060
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"sentinel3d/internal/experiments"
	"sentinel3d/internal/obs"
	"sentinel3d/internal/parallel"
	"sentinel3d/internal/scenario"
	"sentinel3d/internal/ssdsim"
	"sentinel3d/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracesim: ")
	var (
		workload  = flag.String("workload", "hm_0", "built-in workload name or 'all'")
		traceFile = flag.String("trace", "", "MSR-format CSV trace file (overrides -workload)")
		requests  = flag.Int("requests", 10000, "requests to generate per workload")
		pe        = flag.Int("pe", 5000, "chip wear before the run")
		age       = flag.String("age", "", "dynamic aging: starting lifetime point (fresh, mid, worn); stress then evolves during the replay instead of staying frozen at -pe")
		schedule  = flag.String("schedule", "", "dynamic aging: ambient temperature schedule (room, hot, diurnal); implies lifetime mode like -age")
		full      = flag.Bool("full", false, "use full physical wordline width for retry sampling (slow)")

		faultStuck = flag.Float64("fault-stuck", 0, "fraction of OOB-region cells stuck high on the sampling chip")
		faultPE    = flag.Float64("fault-pe", 0, "FTL page-program fail rate (block-erase fails at 4x this rate)")
		faultSeed  = flag.Uint64("fault-seed", 0xfa17, "fault-injection seed")
		policyList = flag.String("policies", "table,sentinel", "comma-separated policy set (table, sentinel, fallback, ar2, history, sentinel+history, synthetic); reductions are against the first")

		workers   = flag.Int("workers", 0, "replay worker goroutines (0 = GOMAXPROCS)")
		shards    = flag.Int("shards", 1, "device shards replayed concurrently (must divide the channel count)")
		devices   = flag.Int("devices", 1, "fleet devices the trace is striped across (RAID-0 by granule)")
		replicate = flag.Bool("replicate", false, "with -devices N: replicate instead of stripe (reads round-robin, writes fan out)")
		stream    = flag.Bool("stream", false, "stream the trace through the engine with O(1) histogram latency stats instead of materializing it")

		metricsOut = flag.String("metrics", "", "write a Prometheus-style metrics snapshot here at exit ('-' for stdout)")
		slowOut    = flag.String("slow", "", "write the slowest-read trace as JSONL here at exit ('-' for stdout)")
		slowN      = flag.Int("slow-n", 32, "slow reads retained per shard for -slow / -debug-addr")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics, /slow, /debug/vars and /debug/pprof on this address during the run")
	)
	flag.Parse()
	parallel.SetWorkers(*workers)

	// SIGINT/SIGTERM cancel the matrix run cooperatively: streaming
	// replay cells stop at their next chunk boundary, unstarted cells
	// are skipped, and the metrics/slow-trace snapshots below still
	// flush whatever was serviced. A second signal kills the process.
	ctx, stopSignals := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	scaleStr := "quick"
	if *full {
		scaleStr = "full"
	}

	// One registry instruments the whole stack: the chip-level controller
	// and sentinel engine (via the cell scale) and every replay engine
	// below (via ReplayConfig.Metrics, one registry shard per
	// (device, shard) target).
	var reg *obs.Registry
	if *metricsOut != "" || *slowOut != "" || *debugAddr != "" {
		reg = obs.NewRegistry(*shards * max(*devices, 1))
		reg.KeepSlowest(*slowN)
	}
	if *debugAddr != "" {
		srv, err := obs.Serve(*debugAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("debug endpoint: http://%s/metrics\n", srv.Addr)
	}

	var policies []string
	for _, p := range strings.Split(*policyList, ",") {
		if p = strings.TrimSpace(p); p != "" {
			policies = append(policies, p)
		}
	}
	if len(policies) == 0 {
		log.Fatal("-policies: empty policy list")
	}

	var names []string
	switch {
	case *traceFile != "":
		names = []string{*traceFile}
	case *workload == "all":
		for _, spec := range trace.MSRWorkloads() {
			names = append(names, spec.Name)
		}
	default:
		if _, err := trace.WorkloadByName(*workload); err != nil {
			log.Fatal(err)
		}
		names = []string{*workload}
	}

	var fault *scenario.FaultSpec
	if *faultStuck > 0 || *faultPE > 0 {
		fault = &scenario.FaultSpec{
			Seed:              *faultSeed,
			StuckRate:         *faultStuck,
			StuckHighFraction: 1,
			ProgramFailRate:   *faultPE,
		}
	}

	// One cell per (workload, policy). The seed is pinned per workload so
	// every policy replays the identical trace; sanitize file paths into
	// legal cell names.
	m := &scenario.Matrix{Name: "tracesim"}
	for _, name := range names {
		seed := scenario.SplitSeed(7, name)
		for _, pol := range policies {
			spec := scenario.Spec{
				Name:       cellName(name) + "_" + pol,
				Experiment: "replay",
				Scale:      scaleStr,
				Policy:     pol,
				Requests:   *requests,
				PE:         *pe,
				Shards:     *shards,
				Devices:    *devices,
				Replicate:  *replicate,
				Seed:       seed,
				Collect:    !*stream,
				Fault:      fault,
				Age:        *age,
				Schedule:   *schedule,
			}
			if *traceFile != "" {
				spec.TraceFile = *traceFile
			} else {
				spec.Workload = name
			}
			m.Cells = append(m.Cells, spec)
		}
	}

	if *faultStuck > 0 {
		fmt.Printf("faults: %.3g of OOB cells stuck high (seed %d)\n", *faultStuck, *faultSeed)
	}

	res, runErr := scenario.Run(m, scenario.RunOptions{Obs: reg, KeepPayload: true, Ctx: ctx})
	if runErr != nil && ctx.Err() == nil {
		log.Fatal(runErr)
	}
	if ctx.Err() != nil {
		// Interrupted: some cells never produced payloads, so skip the
		// table, flush the partial snapshots and exit non-zero.
		fmt.Println("interrupted: skipping the latency table, flushing partial metrics")
		dumpSnapshots(*metricsOut, *slowOut, reg)
		os.Exit(1)
	}

	// Cells are in matrix order: len(policies) per workload, and every
	// reduction is against the workload's first listed policy.
	cell := func(i, j int) scenario.CellResult { return res.Cells[i*len(policies)+j] }
	fmt.Print("chip MSB retries:")
	for j, pol := range policies {
		fmt.Printf(" %s %.2f", pol, cell(0, j).Metrics["msb-retries"])
	}
	fmt.Print("\n\n")
	hdr := []string{"workload", "policy", "reads", "mean µs", "p99 µs", "reduction",
		"uncorr", "fallback", "retired"}
	var rows [][]string
	for i, name := range names {
		base := report(cell(i, 0))
		for j, pol := range policies {
			r := report(cell(i, j))
			red := 0.0
			if base.MeanReadUS > 0 {
				red = 1 - r.MeanReadUS/base.MeanReadUS
			}
			rows = append(rows, []string{
				name, pol, fmt.Sprint(r.Reads),
				fmt.Sprintf("%.0f", r.MeanReadUS), fmt.Sprintf("%.0f", r.P99ReadUS),
				experiments.Pct(red), fmt.Sprint(r.UncorrectableReads),
				fmt.Sprint(r.FallbackReads), fmt.Sprint(r.RetiredBlocks),
			})
		}
	}
	fmt.Print(experiments.Table(hdr, rows))
	for j, pol := range policies {
		printPerDevice(*devices, *replicate, pol, names, func(i int) scenario.CellResult { return cell(i, j) })
	}
	dumpSnapshots(*metricsOut, *slowOut, reg)
}

// printPerDevice breaks a fleet replay down per device for one policy —
// the rows come straight from the engine's PerDevice summaries. No-op
// for single-device runs.
func printPerDevice(devices int, replicate bool, policy string, names []string,
	cell func(workload int) scenario.CellResult) {
	if devices <= 1 {
		return
	}
	mode := "striped"
	if replicate {
		mode = "replicated"
	}
	fmt.Printf("\nper-device breakdown, %s policy (%d devices, %s):\n", policy, devices, mode)
	hdr := []string{"workload", "device", "requests", "reads", "mean µs", "p99", "uncorr", "retired"}
	var drows [][]string
	for i, name := range names {
		for d, sum := range perDevice(cell(i)) {
			drows = append(drows, []string{
				name, fmt.Sprintf("dev%d", d),
				fmt.Sprint(sum.Requests), fmt.Sprint(sum.Reads),
				fmt.Sprintf("%.0f", sum.MeanReadUS), fmt.Sprintf("%.0f", sum.P99ReadUS),
				fmt.Sprint(sum.UncorrectableReads), fmt.Sprint(sum.RetiredBlocks),
			})
		}
	}
	fmt.Print(experiments.Table(hdr, drows))
}

// dumpSnapshots writes the metrics and slow-trace snapshots to their
// -metrics / -slow destinations (both optional). It runs on the clean
// path and on interrupt, so a canceled run still lands its partial
// snapshot.
func dumpSnapshots(metricsOut, slowOut string, reg *obs.Registry) {
	if metricsOut != "" {
		if err := obs.Dump(metricsOut, reg); err != nil {
			log.Fatal(err)
		}
	}
	if slowOut != "" {
		if err := obs.DumpSlow(slowOut, reg); err != nil {
			log.Fatal(err)
		}
	}
}

// report extracts a cell's replay summary (single-device or fleet).
func report(c scenario.CellResult) *ssdsim.ReportSummary {
	switch r := c.Payload.(type) {
	case *scenario.ReplayResult:
		return &r.Report
	case *scenario.LifetimeReplayResult:
		return &r.Report
	case *scenario.FleetReplayResult:
		return &r.Report
	default:
		log.Fatalf("cell %s: unexpected payload %T", c.Name, c.Payload)
		return nil
	}
}

// perDevice extracts a fleet cell's per-device summaries (nil for
// single-device cells).
func perDevice(c scenario.CellResult) []ssdsim.ReportSummary {
	if r, ok := c.Payload.(*scenario.FleetReplayResult); ok {
		return r.PerDevice
	}
	return nil
}

// cellName sanitizes a workload or file name into a legal cell name.
func cellName(name string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '/', ':', ' ', '\t':
			return '_'
		}
		return r
	}, name)
}

// Command reproduce runs the paper's tables and figures on the simulated
// chips and prints the results as text tables. It is a thin front-end
// over the internal/scenario registry and matrix runner: -matrix runs a
// declarative experiment matrix (see scenarios/), and -exp builds an
// in-memory one with a cell per experiment id (per kind for per-kind
// entries). Either way the cells run concurrently, bounded by -workers,
// with shared preconditioning, golden-digest gating and optional
// machine-readable per-cell results, and print when the run ends.
//
// Usage:
//
//	reproduce -exp fig13                     # one experiment at quick scale
//	reproduce -exp all -scale full           # the whole evaluation, full fidelity
//	reproduce -list                          # show every registry entry
//	reproduce -matrix scenarios/paper.json   # the full declarative matrix
//	reproduce -matrix scenarios/smoke.json -cells '^replay_' -out results/
//
// Experiment ids: fig2 fig3 fig45 fig6 fig7 fig8 fig10 table1 fig12 fig13
// fig14 fig15 (alias: errcomp, covers figs 15-18) fig19 robust ablations
// all; plus replay (the default cell of the sharded streaming engine,
// never part of all; cmd/tracesim is the replay front end).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"regexp"
	"strings"
	"syscall"

	"sentinel3d/internal/obs"
	"sentinel3d/internal/parallel"
	"sentinel3d/internal/scenario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("reproduce: ")
	var (
		expID    = flag.String("exp", "all", "experiment id (see -list), or all")
		scaleStr = flag.String("scale", "quick", "quick or full")
		kindStr  = flag.String("kind", "both", "tlc, qlc or both (where applicable)")
		requests = flag.Int("requests", 0, "trace requests per workload (0 = experiment default)")
		workers  = flag.Int("workers", 0, "worker goroutines shared by the cells and their per-wordline fan-out (0 = all CPUs); results are identical at any setting")

		matrixPath = flag.String("matrix", "", "run a scenario matrix JSON instead of -exp")
		cellsRe    = flag.String("cells", "", "run only cells whose name matches this regexp")
		outDir     = flag.String("out", "", "write per-cell JSON results and matrix.json here")
		benchOut   = flag.String("bench", "", "write go-bench-format cell lines here ('-' for stdout)")
		list       = flag.Bool("list", false, "list registry experiments and exit")

		metricsOut = flag.String("metrics", "", "write a Prometheus-style metrics snapshot here at exit ('-' for stdout)")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics, /slow, /debug/vars and /debug/pprof on this address during the run")
	)
	flag.Parse()
	parallel.SetWorkers(*workers)

	if *list {
		for _, e := range scenario.Entries() {
			tags := ""
			if e.PerKind {
				tags += " [per-kind]"
			}
			if !e.InAll {
				tags += " [not in all]"
			}
			fmt.Printf("%-20s %s%s\n", e.Name, e.Desc, tags)
		}
		return
	}

	// The chip-level experiments fan out over a single shard, so one
	// shard is enough for the CLI registry; the slow ring backs /slow.
	var reg *obs.Registry
	if *metricsOut != "" || *debugAddr != "" {
		reg = obs.NewRegistry(1)
		reg.KeepSlowest(32)
	}
	if *debugAddr != "" {
		srv, err := obs.Serve(*debugAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("debug endpoint: http://%s/metrics\n", srv.Addr)
	}

	// SIGINT/SIGTERM cancel the run cooperatively: replay cells stop at
	// their next chunk boundary, unstarted cells are skipped, and the
	// matrix artifacts plus the -metrics snapshot below still flush with
	// whatever completed. A second signal kills the process.
	ctx, stopSignals := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var m *scenario.Matrix
	if *matrixPath != "" {
		var err error
		if m, err = scenario.Load(*matrixPath); err != nil {
			log.Fatal(err)
		}
	} else {
		m = expMatrix(*expID, *scaleStr, *kindStr, *requests)
	}
	runErr := runMatrix(ctx, m, *cellsRe, *outDir, *benchOut, reg)

	// The metrics snapshot lands before any failure exit, so an
	// interrupted (or failed) run still leaves its partial telemetry.
	if *metricsOut != "" {
		if err := obs.Dump(*metricsOut, reg); err != nil {
			log.Fatal(err)
		}
	}
	if runErr != nil {
		if ctx.Err() != nil {
			log.Printf("interrupted: %v", runErr)
			os.Exit(1)
		}
		log.Fatal(runErr)
	}
}

// runMatrix executes a matrix and prints a per-cell summary. Golden
// mismatches and cell errors are all reported (and the result artifacts
// written) before the returned error makes the command exit non-zero;
// flag and I/O mistakes stay fatal on the spot.
func runMatrix(ctx context.Context, m *scenario.Matrix, cellsRe, outDir, benchOut string, reg *obs.Registry) error {
	opts := scenario.RunOptions{Obs: reg, ResultsDir: outDir, Ctx: ctx}
	if cellsRe != "" {
		re, err := regexp.Compile(cellsRe)
		if err != nil {
			log.Fatalf("-cells: %v", err)
		}
		opts.Filter = re
	}
	var benchFile *os.File
	switch benchOut {
	case "":
	case "-":
		opts.BenchWriter = os.Stdout
	default:
		f, err := os.Create(benchOut)
		if err != nil {
			log.Fatal(err)
		}
		benchFile = f
		opts.BenchWriter = f
	}
	res, runErr := scenario.Run(m, opts)
	if benchFile != nil {
		if err := benchFile.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if res != nil {
		for _, c := range res.Cells {
			status := "ok"
			if c.Err != "" {
				status = "FAIL: " + c.Err
			} else if c.Golden != "" {
				status = "ok (golden " + c.Golden + ")"
			}
			fmt.Printf("== %s (%s, %.1fs) ==\n%s%-10s digest=%s  %s\n\n",
				c.Name, m.Name, c.Seconds, renderBlock(c.Render), c.Experiment, c.Digest, status)
		}
		fmt.Printf("matrix %s: %d cells, %d failed, %d shared-precondition executions\n",
			m.Name, len(res.Cells), len(res.Failed()), res.PrecondExecutions)
	}
	return runErr
}

// renderBlock newline-terminates a cell render for display.
func renderBlock(r string) string {
	if r == "" {
		return ""
	}
	return strings.TrimRight(r, "\n") + "\n"
}

// aliases maps historical CLI experiment ids to registry entries.
var aliases = map[string][]string{
	"fig4":      {"fig45"},
	"fig5":      {"fig45"},
	"fig15":     {"errcomp"},
	"fig16":     {"errcomp"},
	"fig17":     {"errcomp"},
	"fig18":     {"errcomp"},
	"ablations": {"ablation-placement", "ablation-tempbands", "ablation-delta", "ablation-combined"},
}

// expMatrix builds the in-memory matrix behind -exp: one cell per
// registry entry named by id (an alias, or every entry in "all"), one
// per kind for per-kind entries. Cells are named id or id_kind and seed
// from SplitSeed(1, name), so each one digests exactly like the
// same-named cell of scenarios/paper.json. Unknown ids and kinds are
// fatal.
func expMatrix(expID, scaleStr, kindStr string, requests int) *scenario.Matrix {
	kinds := []string{"tlc", "qlc"}
	switch strings.ToLower(kindStr) {
	case "tlc":
		kinds = []string{"tlc"}
	case "qlc":
		kinds = []string{"qlc"}
	case "both":
	default:
		log.Fatalf("unknown kind %q", kindStr)
	}

	var ids []string
	switch {
	case expID == "all":
		for _, e := range scenario.Entries() {
			if e.InAll {
				ids = append(ids, e.Name)
			}
		}
	case aliases[expID] != nil:
		ids = aliases[expID]
	default:
		ids = []string{expID}
	}

	m := &scenario.Matrix{Name: "exp", Seed: 1,
		Defaults: scenario.Spec{Scale: scaleStr, Requests: requests}}
	for _, id := range ids {
		entry, err := scenario.Lookup(id)
		if err != nil {
			log.Fatal(err)
		}
		if !entry.PerKind {
			m.Cells = append(m.Cells, scenario.Spec{Name: id, Experiment: id})
			continue
		}
		for _, k := range kinds {
			m.Cells = append(m.Cells, scenario.Spec{Name: id + "_" + k, Experiment: id, Kind: k})
		}
	}
	return m
}

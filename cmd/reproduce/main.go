// Command reproduce runs the paper's tables and figures on the simulated
// chips and prints the results as text tables. It is a thin front-end
// over the internal/scenario registry: every experiment id is a registry
// entry, and -matrix runs a whole declarative experiment matrix (see
// scenarios/) with shared preconditioning, golden-digest gating and
// machine-readable per-cell results.
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
	"io"
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
		workers  = flag.Int("workers", 0, "worker goroutines for per-wordline fan-out (0 = all CPUs); results are identical at any setting")

		matrixPath = flag.String("matrix", "", "run a scenario matrix JSON instead of -exp")
		cellsRe    = flag.String("cells", "", "with -matrix: run only cells whose name matches this regexp")
		outDir     = flag.String("out", "", "with -matrix: write per-cell JSON results and matrix.json here")
		benchOut   = flag.String("bench", "", "with -matrix: write go-bench-format cell lines here ('-' for stdout)")
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

	var runErr error
	if *matrixPath != "" {
		runErr = runMatrix(ctx, *matrixPath, *cellsRe, *outDir, *benchOut, reg)
	} else {
		runErr = runExp(ctx, *expID, *scaleStr, *kindStr, *requests, reg)
	}

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

// runMatrix executes a declarative matrix file and prints a per-cell
// summary. Golden mismatches and cell errors are all reported (and the
// result artifacts written) before the returned error makes the command
// exit non-zero; flag and I/O mistakes stay fatal on the spot.
func runMatrix(ctx context.Context, path, cellsRe, outDir, benchOut string, reg *obs.Registry) error {
	m, err := scenario.Load(path)
	if err != nil {
		log.Fatal(err)
	}
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
		benchFile, err = os.Create(benchOut)
		if err != nil {
			log.Fatal(err)
		}
		opts.BenchWriter = io.Writer(benchFile)
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

// runExp dispatches one -exp id (or "all") through the registry. Cell
// failures and cancellation return an error (so main can still flush
// the metrics snapshot); bad flag values stay fatal on the spot.
func runExp(ctx context.Context, expID, scaleStr, kindStr string, requests int, reg *obs.Registry) error {
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

	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("stopped before %s: %w", id, err)
		}
		entry, err := scenario.Lookup(id)
		if err != nil {
			log.Fatal(err)
		}
		runKinds := []string{""}
		if entry.PerKind {
			runKinds = kinds
		}
		for _, k := range runKinds {
			spec := scenario.Spec{
				Name:       strings.ReplaceAll(id, "/", "_"),
				Experiment: id,
				Scale:      scaleStr,
				Kind:       k,
				Requests:   requests,
			}
			label := id
			if k != "" {
				spec.Name = id + "_" + k
				label = id + "/" + k
			}
			res, err := scenario.RunCell(spec, scenario.RunOptions{Obs: reg, Ctx: ctx})
			if err != nil {
				return fmt.Errorf("%s: %w", label, err)
			}
			fmt.Printf("== %s (%s scale, %.1fs) ==\n%s\n",
				label, scaleName(scaleStr), res.Seconds, res.Render)
		}
	}
	return nil
}

// scaleName normalizes the -scale flag for display.
func scaleName(s string) string {
	if s == "" {
		return "quick"
	}
	return s
}

package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"time"

	"sentinel3d/internal/obs"
	"sentinel3d/internal/parallel"
)

// Digest hashes a deterministic result value exactly the way the golden
// regression tests always have: sha256 over the %v rendering, first 8
// bytes, hex. The read stack promises byte-identical results across
// refactors and worker counts, so a digest change is a bug (or a
// knowingly re-recorded golden), never noise.
func Digest(v any) string {
	d := sha256.Sum256([]byte(fmt.Sprintf("%v", v)))
	return fmt.Sprintf("%x", d[:8])
}

// RunOptions parameterizes a matrix run.
type RunOptions struct {
	// Filter keeps only cells whose name matches (nil = every cell) —
	// the CI cell groups slice the smoke matrix with it.
	Filter *regexp.Regexp
	// Obs, when non-nil, is a CLI-level registry shared by every cell
	// (the -metrics / -debug-addr flags). It supersedes per-spec
	// registries; replay cells attach it only when it holds enough
	// shards.
	Obs *obs.Registry
	// ResultsDir, when non-empty, receives one <cell>.json per cell plus
	// a matrix.json summary.
	ResultsDir string
	// BenchWriter, when non-nil, receives one go-bench-format line per
	// cell ("Benchmark<name> 1 <wall-ns> ns/op <metrics>...") so
	// cmd/benchjson can parse, compare and gate the run.
	BenchWriter io.Writer
	// KeepPayload retains each cell's raw result value on CellResult for
	// in-process front-ends (tracesim's latency table); the payload is
	// never serialized.
	KeepPayload bool
	// Ctx, when non-nil, cancels the run cooperatively (the CLIs wire
	// SIGINT/SIGTERM here): cells that have not started are marked
	// "canceled before start" without running, in-flight replay cells
	// stop at their next chunk boundary, and the partial results still
	// emit — an interrupted matrix flushes what it has instead of dying
	// mid-write.
	Ctx context.Context
}

// CellResult is one cell's machine-readable outcome.
type CellResult struct {
	Name       string             `json:"name"`
	Experiment string             `json:"experiment"`
	Scale      string             `json:"scale,omitempty"`
	Seed       uint64             `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Digest     string             `json:"digest,omitempty"`
	Golden     string             `json:"golden,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	Render     string             `json:"render,omitempty"`
	Err        string             `json:"error,omitempty"`
	// Payload is the raw result value, populated only under
	// RunOptions.KeepPayload; it never reaches the JSON artifacts.
	Payload any `json:"-"`
}

// MatrixResult is the whole run's summary.
type MatrixResult struct {
	Matrix string       `json:"matrix"`
	Cells  []CellResult `json:"cells"`
	// PrecondExecutions counts the shared-preconditioning builders that
	// actually ran — at most the number of distinct signatures, however
	// many cells share them.
	PrecondExecutions int64 `json:"precond_executions"`
}

// Failed lists the cells that errored (including golden mismatches).
func (m *MatrixResult) Failed() []CellResult {
	var out []CellResult
	for _, c := range m.Cells {
		if c.Err != "" {
			out = append(out, c)
		}
	}
	return out
}

// Run expands the matrix and executes every (filtered) cell: the cells
// fan out through internal/parallel (each is internally parallel too —
// the pool just sees more work). Cell failures — runner errors and
// golden-digest mismatches alike — never stop other cells; they are
// accumulated into the returned error, BASIL-style, so one broken cell
// cannot hide the rest of the matrix.
func Run(m *Matrix, opts RunOptions) (*MatrixResult, error) {
	cells, err := m.Expand()
	if err != nil {
		return nil, err
	}
	if opts.Filter != nil {
		kept := cells[:0:0]
		for _, c := range cells {
			if opts.Filter.MatchString(c.Name) {
				kept = append(kept, c)
			}
		}
		if len(kept) == 0 {
			return nil, fmt.Errorf("scenario: matrix %q: no cell matches %q", m.Name, opts.Filter)
		}
		cells = kept
	}
	shared := NewShared()
	results := make([]CellResult, len(cells))
	parallel.ForEach(len(cells), func(i int) {
		results[i] = runCell(cells[i], shared, opts)
	})
	res := &MatrixResult{Matrix: m.Name, Cells: results,
		PrecondExecutions: shared.Executions()}
	var errs []error
	for _, c := range results {
		if c.Err != "" {
			errs = append(errs, fmt.Errorf("cell %s: %s", c.Name, c.Err))
		}
	}
	if err := emit(res, opts); err != nil {
		errs = append(errs, err)
	}
	return res, errors.Join(errs...)
}

// runCell executes one validated cell and converts its outcome.
func runCell(spec Spec, shared *Shared, opts RunOptions) CellResult {
	out := CellResult{
		Name:       spec.Name,
		Experiment: spec.Experiment,
		Scale:      spec.Scale,
		Seed:       spec.Seed,
		Golden:     spec.Golden,
	}
	if opts.Ctx != nil && opts.Ctx.Err() != nil {
		out.Err = "canceled before start"
		return out
	}
	entry, err := Lookup(spec.Experiment)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	reg := opts.Obs
	if reg == nil && spec.Obs.Metrics {
		// One registry shard per engine shard of every fleet device:
		// runReplay drops a registry smaller than Devices×Shards, and
		// runServe one smaller than its fleet.
		n := max(1, spec.Shards) * max(1, spec.Devices)
		if spec.Experiment == "serve" {
			n = serveShards
		}
		reg = obs.NewRegistry(n)
	}
	scale, err := resolveScale(spec, reg)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	ctx := &Ctx{Spec: spec, Scale: scale, Seed: spec.Seed, Obs: reg,
		Shared: shared, Context: opts.Ctx}
	start := time.Now()
	oc, err := entry.Run(ctx)
	out.Seconds = time.Since(start).Seconds()
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.Render = oc.Render
	out.Metrics = oc.Metrics
	if opts.KeepPayload {
		out.Payload = oc.Payload
	}
	out.Digest = Digest(oc.Payload)
	if spec.Golden != "" && out.Digest != spec.Golden {
		out.Err = fmt.Sprintf("golden mismatch: digest %s, want %s", out.Digest, spec.Golden)
	}
	return out
}

// emit writes the per-cell JSON results, the matrix summary and the
// bench-format lines.
func emit(res *MatrixResult, opts RunOptions) error {
	if opts.BenchWriter != nil {
		for _, c := range res.Cells {
			if c.Err != "" && c.Digest == "" {
				continue // cell never produced a result
			}
			fmt.Fprintf(opts.BenchWriter, "Benchmark%s \t 1 \t %.0f ns/op", c.Name, c.Seconds*1e9)
			units := make([]string, 0, len(c.Metrics))
			for u := range c.Metrics {
				units = append(units, u)
			}
			sort.Strings(units)
			for _, u := range units {
				fmt.Fprintf(opts.BenchWriter, " %g %s", c.Metrics[u], u)
			}
			fmt.Fprintln(opts.BenchWriter)
		}
	}
	if opts.ResultsDir == "" {
		return nil
	}
	if err := os.MkdirAll(opts.ResultsDir, 0o755); err != nil {
		return err
	}
	for _, c := range res.Cells {
		data, err := json.MarshalIndent(c, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(opts.ResultsDir, c.Name+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(opts.ResultsDir, "matrix.json"),
		append(data, '\n'), 0o644)
}

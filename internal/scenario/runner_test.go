package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"sentinel3d/internal/charlab"
	"sentinel3d/internal/experiments"
	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/physics"
)

// syntheticMatrix is a fast all-synthetic replay matrix used by several
// tests (no chip is built).
func syntheticMatrix() *Matrix {
	return &Matrix{
		Name:     "test",
		Defaults: Spec{Scale: "quick", Policy: "synthetic", Requests: 2000},
		Sweep: []Axes{{
			Base:     Spec{Experiment: "replay"},
			Workload: []string{"hm_0", "prxy_0"},
			Shards:   []int{1, 2},
		}},
	}
}

// runOne runs spec as the only cell of a matrix, the way the CLIs run a
// single experiment.
func runOne(t *testing.T, spec Spec) CellResult {
	t.Helper()
	return runOneWith(t, spec, RunOptions{})
}

// runOneWith is runOne under the given run options.
func runOneWith(t *testing.T, spec Spec, opts RunOptions) CellResult {
	t.Helper()
	res, err := Run(&Matrix{Name: "one", Cells: []Spec{spec}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Cells[0]
}

func TestRunSyntheticReplay(t *testing.T) {
	dir := t.TempDir()
	var bench bytes.Buffer
	res, err := Run(syntheticMatrix(), RunOptions{ResultsDir: dir, BenchWriter: &bench})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("ran %d cells, want 4", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Err != "" {
			t.Errorf("cell %s failed: %s", c.Name, c.Err)
		}
		if c.Digest == "" {
			t.Errorf("cell %s has no digest", c.Name)
		}
		if c.Metrics["req/s"] <= 0 {
			t.Errorf("cell %s has no req/s metric", c.Name)
		}
		if !strings.Contains(c.Render, c.Name[:4]) && !strings.Contains(c.Render, "workload") {
			t.Errorf("cell %s render looks wrong: %q", c.Name, c.Render)
		}
	}
	// The two shard counts of one workload replay different device
	// splits, so their digests must differ; the same cell re-run must
	// not (covered by the determinism test).
	if res.Cells[0].Digest == res.Cells[1].Digest {
		t.Errorf("shards=1 and shards=2 digests equal: %s", res.Cells[0].Digest)
	}

	// Per-cell JSON artifacts plus the matrix summary.
	var cell CellResult
	data, err := os.ReadFile(filepath.Join(dir, "hm_0_s1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &cell); err != nil {
		t.Fatal(err)
	}
	if cell.Name != "hm_0_s1" || cell.Digest != res.Cells[0].Digest {
		t.Errorf("cell artifact mismatch: %+v", cell)
	}
	var sum MatrixResult
	data, err = os.ReadFile(filepath.Join(dir, "matrix.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatal(err)
	}
	if len(sum.Cells) != 4 {
		t.Errorf("matrix summary has %d cells", len(sum.Cells))
	}

	// Bench lines parse as go test -bench output: one per cell with the
	// custom req/s metric.
	lines := strings.Split(strings.TrimSpace(bench.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d bench lines, want 4:\n%s", len(lines), bench.String())
	}
	if !strings.HasPrefix(lines[0], "Benchmarkhm_0_s1") || !strings.Contains(lines[0], "req/s") {
		t.Errorf("bench line: %q", lines[0])
	}
}

func TestGoldenGate(t *testing.T) {
	m := syntheticMatrix()
	m.Golden = map[string]string{
		"hm_0_s1":   "0000000000000000", // wrong on purpose
		"prxy_0_s2": "1111111111111111", // wrong on purpose
	}
	res, err := Run(m, RunOptions{})
	if err == nil {
		t.Fatal("golden mismatches did not fail the run")
	}
	// Both mismatches are reported — failures accumulate, they don't
	// stop at the first cell.
	for _, name := range []string{"hm_0_s1", "prxy_0_s2"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not mention %s: %v", name, err)
		}
	}
	if got := len(res.Failed()); got != 2 {
		t.Errorf("%d failed cells, want 2", got)
	}
	// The other cells still ran and digested.
	for _, c := range res.Cells {
		if c.Golden == "" && (c.Err != "" || c.Digest == "") {
			t.Errorf("unaffected cell %s: %+v", c.Name, c)
		}
	}

	// Re-running with the digests the run reported must pass.
	m.Golden = map[string]string{}
	for _, c := range res.Cells {
		m.Golden[c.Name] = c.Digest
	}
	if _, err := Run(m, RunOptions{}); err != nil {
		t.Fatalf("run with recorded goldens failed: %v", err)
	}
}

func TestRunFilter(t *testing.T) {
	m := syntheticMatrix()
	res, err := Run(m, RunOptions{Filter: mustRe(t, `^hm_0_`)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("filter kept %d cells, want 2", len(res.Cells))
	}
	if _, err := Run(m, RunOptions{Filter: mustRe(t, `^zzz`)}); err == nil {
		t.Error("empty filter result did not error")
	}
}

// TestFilterKeepsSeeds asserts the CI property the name-keyed seed
// split exists for: running a cell alone yields the same digest as
// running it inside the full matrix.
func TestFilterKeepsSeeds(t *testing.T) {
	m := syntheticMatrix()
	full, err := Run(m, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(m, RunOptions{Filter: mustRe(t, `^prxy_0_s2$`)})
	if err != nil {
		t.Fatal(err)
	}
	var want CellResult
	for _, c := range full.Cells {
		if c.Name == "prxy_0_s2" {
			want = c
		}
	}
	if one.Cells[0].Digest != want.Digest {
		t.Errorf("filtered digest %s != full-matrix digest %s",
			one.Cells[0].Digest, want.Digest)
	}
}

// TestPreconditionDedup asserts chip-backed cells share their expensive
// setup: three cells over two policies build one chip prep and two
// samplers — three shared executions, not one per cell (and nothing
// shared leaks between policies: the digests differ).
func TestPreconditionDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a chip; skipped in -short")
	}
	m := &Matrix{
		Name:     "dedup",
		Defaults: Spec{Scale: "quick", Requests: 1000},
		Cells: []Spec{
			{Name: "a", Experiment: "replay", Policy: "sentinel", Workload: "hm_0"},
			{Name: "b", Experiment: "replay", Policy: "sentinel", Workload: "prxy_0"},
			{Name: "c", Experiment: "replay", Policy: "table", Workload: "hm_0"},
		},
	}
	res, err := Run(m, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PrecondExecutions != 3 {
		t.Errorf("%d precondition executions, want 3 (1 chip prep + 2 samplers)",
			res.PrecondExecutions)
	}
	if res.Cells[0].Digest == res.Cells[2].Digest {
		t.Error("sentinel and table cells share a digest; policies leaked")
	}
	for _, c := range res.Cells {
		if c.Metrics["msb-retries"] <= 0 {
			t.Errorf("cell %s has no msb-retries metric", c.Name)
		}
	}
}

func TestRunCellCharlab(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a chip; skipped in -short")
	}
	res := runOne(t, Spec{
		Name: "bench", Experiment: "charlab", Kind: "tlc",
		Wordlines: 2, PE: 1000, Hours: 100, SweepV: 2, Seed: 1,
	})
	for _, want := range []string{"chip:", "effective room-temp retention:", "RBER", "error-vs-offset sweep"} {
		if !strings.Contains(res.Render, want) {
			t.Errorf("charlab render missing %q:\n%s", want, res.Render)
		}
	}
	if res.Metrics["wordlines"] != 2 {
		t.Errorf("wordlines metric %v", res.Metrics)
	}

	// mean-rber is the full-precision mean of the default-voltage page
	// RBERs, not of the table's 3-digit renderings: rebuild the same
	// chip and recompute it in the cell's order.
	cfg := experiments.Quick().ChipConfig(flash.TLC, 1)
	chip, err := flash.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wls := []int{0, cfg.WordlinesPerBlock() / 2}
	for _, wl := range wls {
		chip.ProgramRandom(wl, mathx.NewRand(mathx.Mix(1^0xf1a5, uint64(wl))))
	}
	chip.Cycle(1000)
	chip.Age(100, physics.RoomTempC)
	lab := charlab.New(chip)
	var sum float64
	for _, wl := range wls {
		for p := 0; p < flash.TLC.Bits(); p++ {
			sum += lab.PageRBER(wl, p, nil)
		}
	}
	if want := sum / float64(len(wls)*flash.TLC.Bits()); res.Metrics["mean-rber"] != want {
		t.Errorf("mean-rber %v, want full-precision mean %v", res.Metrics["mean-rber"], want)
	}
}

func mustRe(t *testing.T, expr string) *regexp.Regexp {
	t.Helper()
	re, err := regexp.Compile(expr)
	if err != nil {
		t.Fatal(err)
	}
	return re
}

// TestRunCanceled: a canceled run marks unstarted cells instead of
// executing them, still emits the result artifacts, and reports the
// cancellation through the returned error — the CLI SIGINT contract.
func TestRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := t.TempDir()
	res, err := Run(syntheticMatrix(), RunOptions{Ctx: ctx, ResultsDir: dir})
	if err == nil {
		t.Fatal("canceled run reported success")
	}
	if res == nil || len(res.Cells) != 4 {
		t.Fatalf("canceled run results: %+v", res)
	}
	for _, c := range res.Cells {
		if c.Err != "canceled before start" {
			t.Errorf("cell %s: err %q, want canceled before start", c.Name, c.Err)
		}
	}
	// The partial artifacts still flushed.
	if _, err := os.Stat(filepath.Join(dir, "matrix.json")); err != nil {
		t.Errorf("canceled run wrote no matrix summary: %v", err)
	}
}

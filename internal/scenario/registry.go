package scenario

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"sentinel3d/internal/experiments"
	"sentinel3d/internal/flash"
	"sentinel3d/internal/obs"
)

// Ctx is what a registry runner receives: the resolved spec, the
// resolved experiments.Scale (with the obs registry attached when the
// spec asks for one), the cell's split seed, and the shared-
// preconditioning cache of the enclosing matrix run.
type Ctx struct {
	Spec  Spec
	Scale experiments.Scale
	// Seed is the cell's resolved seed: Spec.Seed when pinned, else
	// split deterministically from the matrix seed and the cell name.
	Seed uint64
	// Obs is non-nil when Spec.Obs.Metrics is set (or the CLI passed a
	// registry through RunOptions); it is sharded to at least the cell's
	// shard count.
	Obs *obs.Registry
	// Shared dedupes expensive setup (trained models, aged chips,
	// sampled retry distributions) across the cells of one matrix run.
	Shared *Shared
	// Context, when non-nil, cancels long cell work cooperatively (the
	// CLIs wire SIGINT/SIGTERM through RunOptions.Ctx): the replay
	// runner hands it to the streaming engine, which stops at its next
	// chunk boundary. Nil means run to completion; chip-level runners
	// that finish in milliseconds may ignore it.
	Context context.Context
}

// Kind resolves the spec's cell technology.
func (c *Ctx) Kind() flash.Kind {
	if c.Spec.Kind == "qlc" {
		return flash.QLC
	}
	return flash.TLC
}

// Requests resolves the spec's trace length with the given default.
func (c *Ctx) Requests(def int) int {
	if c.Spec.Requests > 0 {
		return c.Spec.Requests
	}
	return def
}

// Outcome is what a runner returns.
type Outcome struct {
	// Payload is the deterministic result value: it is digested (and
	// checked against the cell's golden digest) and must therefore be
	// byte-identical at any worker count.
	Payload any
	// Result reports the outcome; the runner prints its Text into
	// CellResult.Render, which the CLIs print verbatim.
	Result experiments.Result
	// Metrics holds benchjson-style custom metrics (unit -> value), e.g.
	// "req/s". They are emitted on the cell's bench line and in its JSON
	// result but never digested.
	Metrics map[string]float64
}

// Runner executes one cell.
type Runner func(ctx *Ctx) (*Outcome, error)

// Entry describes one experiment of the table.
type Entry struct {
	// Name is the table key cells reference as "experiment".
	Name string
	// Desc is a one-line description for -list output.
	Desc string
	// PerKind marks experiments parameterized by cell technology: the
	// CLI front-ends expand "-kind both" into one cell per kind.
	PerKind bool
	// InAll marks entries the `reproduce -exp all` set (and the full
	// paper matrix) includes; engineering measurements like the replay
	// scaling table opt out.
	InAll bool
	// Run executes the cell.
	Run Runner
}

// Lookup resolves an experiment name.
func Lookup(name string) (*Entry, error) {
	for _, e := range entries {
		if e.Name == name {
			return e, nil
		}
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("scenario: unknown experiment %q (have %v)", name, names)
}

// Entries returns the experiment table in its declared order — the
// order the "all" experiment set runs in.
func Entries() []*Entry {
	return slices.Clone(entries)
}

// resolveScale builds the experiments.Scale for a spec, attaching the
// registry when one is carried.
func resolveScale(spec Spec, reg *obs.Registry) (experiments.Scale, error) {
	var s experiments.Scale
	switch spec.Scale {
	case "", "quick":
		s = experiments.Quick()
	case "full":
		s = experiments.Full()
	default:
		return s, fmt.Errorf("scenario: unknown scale %q", spec.Scale)
	}
	s.Obs = reg
	return s, nil
}

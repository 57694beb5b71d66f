package scenario

import (
	"context"
	"fmt"
	"sort"
	"sync"

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
	// Render is the human-readable text (the CLIs print it verbatim).
	Render string
	// Metrics holds benchjson-style custom metrics (unit -> value), e.g.
	// "req/s". They are emitted on the cell's bench line and in its JSON
	// result but never digested.
	Metrics map[string]float64
}

// Runner executes one cell.
type Runner func(ctx *Ctx) (*Outcome, error)

// Entry describes one registered experiment.
type Entry struct {
	// Name is the registry key cells reference as "experiment".
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

var (
	regMu   sync.RWMutex
	regByID = map[string]*Entry{}
	regSeq  []*Entry
)

// Register adds an entry; duplicate names panic at init time.
func Register(e Entry) {
	regMu.Lock()
	defer regMu.Unlock()
	if e.Name == "" || e.Run == nil {
		panic("scenario: Register with empty name or nil runner")
	}
	if _, dup := regByID[e.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate registry entry %q", e.Name))
	}
	ent := e
	regByID[e.Name] = &ent
	regSeq = append(regSeq, &ent)
}

// Lookup resolves an experiment name.
func Lookup(name string) (*Entry, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := regByID[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown experiment %q (have %v)", name, names())
	}
	return e, nil
}

// names lists the registered experiments sorted; callers hold regMu.
func names() []string {
	out := make([]string, 0, len(regSeq))
	for _, e := range regSeq {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

// Entries returns the registry in registration order — the order the
// "all" experiment set runs in, matching the pre-registry CLI dispatch.
func Entries() []*Entry {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]*Entry(nil), regSeq...)
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

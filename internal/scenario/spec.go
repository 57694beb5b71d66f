// Package scenario is the declarative experiment layer: every run the
// CLIs used to wire by hand through flags — paper figures, robustness
// sweeps, trace replays, characterization benches — is described by a
// Spec (one struct/JSON object per cell naming the experiment, policy,
// workload, fault profile, shard and device counts and whether metrics
// are on), looked up in a registry of runners, and executed by a
// matrix runner that expands sweeps into cells, dedupes shared
// preconditioning, fans cells out through internal/parallel with
// deterministic per-cell seed splitting, and emits one machine-readable
// result (benchjson-compatible metrics plus a golden digest) per cell.
//
// The committed matrices live under scenarios/ at the repository root;
// `reproduce -matrix scenarios/paper.json` regenerates the EXPERIMENTS.md
// results with one command, and CI runs the smoke tier cell-group by
// cell-group (see DESIGN.md §10).
package scenario

import (
	"fmt"
	"slices"
	"strings"

	"sentinel3d/internal/experiments"
	"sentinel3d/internal/fault"
	"sentinel3d/internal/ftl"
	"sentinel3d/internal/trace"
)

// Spec declares one experiment cell. The zero value of every optional
// field means "the registry entry's default", so a minimal cell is just
// {"name": "fig13", "experiment": "fig13"}. Unknown JSON fields are
// rejected by the loader — a typoed axis must fail loudly, not silently
// run the default.
type Spec struct {
	// Name uniquely identifies the cell inside its matrix. It doubles as
	// the benchmark name in the benchjson-compatible output, so it must
	// be non-empty and contain no whitespace, '/' or ':' (those are
	// bench-line and gate-expression metacharacters).
	Name string `json:"name"`
	// Experiment is the table entry that runs the cell (fig2..fig19,
	// table1, robust, replay, charlab, ...). See Entries() for the full
	// list.
	Experiment string `json:"experiment"`
	// Scale is "quick" (default) or "full" — the fidelity/runtime
	// trade-off of experiments.Scale.
	Scale string `json:"scale,omitempty"`
	// Kind is the cell technology for kind-parameterized experiments:
	// "tlc" (default) or "qlc".
	Kind string `json:"kind,omitempty"`
	// Policy selects the retry policy of replay cells: any name in the
	// experiments.PolicyNames catalogue ("sentinel" by default), built by
	// experiments.Testbed.Policy on the cell's aged chip, or "synthetic"
	// (a fixed outcome distribution; no chip is built, so the cell is
	// fast enough for smoke tiers). The history policies start block 0
	// at offsets inferred once from a sentinel sense and never rewritten,
	// so their cells golden-gate like every other.
	Policy string `json:"policy,omitempty"`
	// Workload names a built-in MSR-like workload (trace.WorkloadByName)
	// for replay cells; TraceFile overrides it with an MSR-format CSV.
	Workload  string `json:"workload,omitempty"`
	TraceFile string `json:"trace_file,omitempty"`
	// Requests bounds generated traces (default 6000).
	Requests int `json:"requests,omitempty"`
	// Shards is the replay engine's device shard count (default 1). It
	// must divide the device's channel count.
	Shards int `json:"shards,omitempty"`
	// Devices is the replay engine's fleet size (default 1): one trace
	// striped (or, with Replicate, mirrored) across this many devices,
	// each a full copy of the cell's geometry.
	Devices int `json:"devices,omitempty"`
	// Replicate switches a multi-device replay cell from RAID-0 striping
	// to replication (reads round-robin, writes fan out to every device).
	Replicate bool `json:"replicate,omitempty"`
	// Seed overrides the cell's derived seed (0 = split from the matrix
	// seed and the cell name; see Matrix.Expand).
	Seed uint64 `json:"seed,omitempty"`
	// PE and Hours set the stress point of chip-backed replay and
	// charlab cells (defaults 5000 P/E, one year).
	PE    int     `json:"pe,omitempty"`
	Hours float64 `json:"hours,omitempty"`
	// Age and Schedule switch a replay cell from frozen stress to
	// dynamic per-block aging (ssdsim.LifetimeConfig): stress evolves
	// during the replay, driven by the trace's own timestamps. Age names
	// the starting lifetime point ("fresh", "mid" or "worn" — the
	// experiments.AgePresets); Schedule the ambient-temperature schedule
	// ("room", "hot" or "diurnal"). Setting either enables the lifetime
	// path; the other defaults to "worn" / "room".
	Age      string `json:"age,omitempty"`
	Schedule string `json:"schedule,omitempty"`
	// TempC is the retention temperature of charlab cells (default 25).
	TempC float64 `json:"temp_c,omitempty"`
	// Wordlines and SweepV parameterize charlab cells: how many
	// wordlines to characterize and which read voltage (1-based) to
	// sweep (0 = none).
	Wordlines int `json:"wordlines,omitempty"`
	SweepV    int `json:"sweep_v,omitempty"`
	// Collect switches replay cells to exact-percentile latency
	// collection (the engine's CollectLatencies mode).
	Collect bool `json:"collect,omitempty"`
	// Fault injects deterministic faults (chip-level sentinel corruption
	// and sense noise, FTL program/erase failures).
	Fault *FaultSpec `json:"fault,omitempty"`
	// Obs attaches an observability registry to the cell.
	Obs ObsSpec `json:"obs,omitempty"`
	// Golden is the expected result digest. When non-empty the runner
	// fails the cell on any divergence — the same byte-identity contract
	// the read kernel's golden tests enforce.
	Golden string `json:"golden,omitempty"`
}

// FaultSpec is the JSON shape of a fault.Profile. The sentinel-region
// bounds are resolved by the runner from the cell's chip configuration
// (the OOB tail), so the spec only carries rates.
type FaultSpec struct {
	// Seed keys every fault decision (default 0xfa17, the CLI default).
	Seed uint64 `json:"seed,omitempty"`
	// StuckRate is the per-cell probability that an OOB (sentinel-
	// region) cell is stuck; StuckHighFraction of those pin above the
	// window (default 1).
	StuckRate         float64 `json:"stuck_rate,omitempty"`
	StuckHighFraction float64 `json:"stuck_high_fraction,omitempty"`
	// OutlierWLRate / BurstRate are chip-level anomaly probabilities
	// (see fault.Profile).
	OutlierWLRate float64 `json:"outlier_wl_rate,omitempty"`
	BurstRate     float64 `json:"burst_rate,omitempty"`
	// ProgramFailRate is the FTL page-program failure probability; the
	// block-erase failure probability is eraseFailFactor times it.
	ProgramFailRate float64 `json:"program_fail_rate,omitempty"`
}

// eraseFailFactor scales FaultSpec.ProgramFailRate to the FTL
// block-erase failure probability, as the tracesim CLI documents.
const eraseFailFactor = 4

// chipProfile builds the chip-level fault profile for a sentinel region
// spanning [start, end) cells, with shift magnitudes scaled by the
// state width sw. Nil when the spec carries no chip-level faults.
func (f *FaultSpec) chipProfile(start, end int, sw float64) (*fault.Injector, error) {
	if f == nil || (f.StuckRate == 0 && f.OutlierWLRate == 0 && f.BurstRate == 0) {
		return nil, nil
	}
	hi := f.StuckHighFraction
	if hi == 0 {
		hi = 1
	}
	return fault.New(fault.Profile{
		Seed:              f.seed(),
		SentinelStuckRate: f.StuckRate,
		SentinelRegion:    [2]int{start, end},
		StuckHighFraction: hi,
		OutlierWLRate:     f.OutlierWLRate,
		OutlierShift:      0.5 * sw,
		BurstRate:         f.BurstRate,
		BurstSigma:        0.25 * sw,
	})
}

// ftlFaults builds the FTL program/erase fault model (nil when unused).
func (f *FaultSpec) ftlFaults() (ftl.PEFaultModel, error) {
	if f == nil || f.ProgramFailRate == 0 {
		return nil, nil
	}
	return fault.New(fault.Profile{
		Seed:               f.seed(),
		FTLProgramFailRate: f.ProgramFailRate,
		FTLEraseFailRate:   eraseFailFactor * f.ProgramFailRate,
	})
}

func (f *FaultSpec) seed() uint64 {
	if f.Seed != 0 {
		return f.Seed
	}
	return 0xfa17
}

// key returns the dedup-signature fragment of the fault spec.
func (f *FaultSpec) key() string {
	if f == nil {
		return "-"
	}
	return fmt.Sprintf("%d/%g/%g/%g/%g/%g", f.seed(), f.StuckRate,
		f.StuckHighFraction, f.OutlierWLRate, f.BurstRate,
		f.ProgramFailRate)
}

// ObsSpec declares the cell's observability settings.
type ObsSpec struct {
	// Metrics attaches an obs registry (sharded to match the cell's
	// shard count) and reports its deterministic snapshot size in the
	// cell metrics.
	Metrics bool `json:"metrics,omitempty"`
}

// Validate checks the spec against the registry. It is called by the
// loader for every expanded cell, so a committed scenario file cannot
// name an experiment, workload, policy or kind that does not exist.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: cell with empty name (experiment %q)", s.Experiment)
	}
	if strings.ContainsAny(s.Name, " \t\n/:") {
		return fmt.Errorf("scenario: cell name %q contains whitespace, '/' or ':'", s.Name)
	}
	if _, err := Lookup(s.Experiment); err != nil {
		return fmt.Errorf("scenario: cell %q: %w", s.Name, err)
	}
	switch s.Scale {
	case "", "quick", "full":
	default:
		return fmt.Errorf("scenario: cell %q: unknown scale %q", s.Name, s.Scale)
	}
	switch s.Kind {
	case "", "tlc", "qlc":
	default:
		return fmt.Errorf("scenario: cell %q: unknown kind %q", s.Name, s.Kind)
	}
	if s.Policy != "" && s.Policy != "synthetic" && !slices.Contains(experiments.PolicyNames, s.Policy) {
		return fmt.Errorf("scenario: cell %q: unknown policy %q", s.Name, s.Policy)
	}
	if s.Age != "" {
		if _, ok := experiments.AgeByName(s.Age); !ok {
			return fmt.Errorf("scenario: cell %q: unknown age %q", s.Name, s.Age)
		}
	}
	if s.Schedule != "" {
		if _, ok := experiments.ScheduleByName(s.Schedule); !ok {
			return fmt.Errorf("scenario: cell %q: unknown schedule %q", s.Name, s.Schedule)
		}
	}
	if s.Workload != "" {
		if _, err := trace.WorkloadByName(s.Workload); err != nil {
			return fmt.Errorf("scenario: cell %q: %w", s.Name, err)
		}
	}
	if s.Requests < 0 || s.Shards < 0 || s.Devices < 0 || s.PE < 0 ||
		s.Hours < 0 || s.Wordlines < 0 || s.SweepV < 0 {
		return fmt.Errorf("scenario: cell %q: negative count", s.Name)
	}
	if f := s.Fault; f != nil {
		for _, r := range []float64{f.StuckRate, f.StuckHighFraction,
			f.OutlierWLRate, f.BurstRate, f.ProgramFailRate} {
			if r < 0 || r > 1 {
				return fmt.Errorf("scenario: cell %q: fault rate %g outside [0,1]", s.Name, r)
			}
		}
	}
	return nil
}

package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"

	"sentinel3d/internal/mathx"
)

// Matrix is the JSON document committed under scenarios/: explicit
// cells plus sweep blocks that expand into cross-product cells, all
// inheriting unset fields from Defaults.
type Matrix struct {
	// Name labels the matrix in reports and artifact paths.
	Name string `json:"name"`
	// Seed is the matrix-level seed; every cell without a pinned seed
	// derives its own by mixing this with its name (so adding, removing
	// or filtering cells never changes another cell's stream). 0 means 1.
	Seed uint64 `json:"seed,omitempty"`
	// Defaults seeds every cell's unset fields.
	Defaults Spec `json:"defaults,omitempty"`
	// Cells are explicit, fully-named cells.
	Cells []Spec `json:"cells,omitempty"`
	// Sweep blocks expand into the cross product of their axis lists.
	Sweep []Axes `json:"sweep,omitempty"`
	// Golden maps expanded cell names to expected digests — the byte-
	// identity gate for sweep-generated cells (explicit cells usually
	// carry their digest inline).
	Golden map[string]string `json:"golden,omitempty"`
}

// Axes is one sweep block. Each listed axis contributes one factor to
// the cross product; unlisted axes come from the block's Base (then the
// matrix defaults). Expanded names are the base name (or experiment)
// joined with each listed axis value, "_"-separated.
type Axes struct {
	// Base seeds every cell of the block; its Name (optional) prefixes
	// the generated names.
	Base Spec `json:"base,omitempty"`
	// Kind, Policy, Workload, Age and Schedule are value axes.
	Kind     []string `json:"kind,omitempty"`
	Policy   []string `json:"policy,omitempty"`
	Workload []string `json:"workload,omitempty"`
	Age      []string `json:"age,omitempty"`
	Schedule []string `json:"schedule,omitempty"`
	// Shards is the numeric axis ("s<N>" name parts).
	Shards []int `json:"shards,omitempty"`
}

// Parse decodes a matrix document strictly: unknown fields anywhere in
// the document are errors, so a typoed axis fails the load instead of
// silently running defaults.
func Parse(data []byte) (*Matrix, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m Matrix
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	// Trailing garbage after the document is a malformed file.
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after matrix document")
	}
	if m.Name == "" {
		return nil, fmt.Errorf("scenario: matrix without a name")
	}
	return &m, nil
}

// Load reads and parses a matrix file.
func Load(path string) (*Matrix, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// Expand resolves the matrix into its validated cell list: explicit
// cells first (in order), then each sweep block's cross product in
// lexicographic axis order. Every cell gets defaults applied, a unique
// name, a golden digest if the matrix maps one, and a deterministic
// seed split from the matrix seed and the cell name.
func (m *Matrix) Expand() ([]Spec, error) {
	var cells []Spec
	for i, c := range m.Cells {
		cell := mergeSpec(c, m.Defaults)
		if cell.Name == "" {
			cell.Name = cell.Experiment
		}
		if cell.Name == "" {
			return nil, fmt.Errorf("scenario: matrix %q: cell %d has no name or experiment", m.Name, i)
		}
		cells = append(cells, cell)
	}
	for bi := range m.Sweep {
		expanded, err := m.Sweep[bi].expand(m.Defaults)
		if err != nil {
			return nil, fmt.Errorf("scenario: matrix %q: sweep %d: %w", m.Name, bi, err)
		}
		cells = append(cells, expanded...)
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("scenario: matrix %q expands to no cells", m.Name)
	}
	seed := m.Seed
	if seed == 0 {
		seed = 1
	}
	seen := map[string]bool{}
	for i := range cells {
		c := &cells[i]
		if g, ok := m.Golden[c.Name]; ok && c.Golden == "" {
			c.Golden = g
		}
		if c.Seed == 0 {
			c.Seed = SplitSeed(seed, c.Name)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("scenario: matrix %q: duplicate cell name %q", m.Name, c.Name)
		}
		seen[c.Name] = true
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	for name := range m.Golden {
		if !seen[name] {
			return nil, fmt.Errorf("scenario: matrix %q: golden digest for unknown cell %q", m.Name, name)
		}
	}
	return cells, nil
}

// SplitSeed derives a cell's seed from the matrix seed and the cell
// name. Name-keyed (not index-keyed) splitting means filtering a matrix
// down to a subset — as the CI cell groups do — cannot change any
// surviving cell's stream.
func SplitSeed(matrixSeed uint64, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return mathx.Mix3(matrixSeed, h.Sum64(), 0x5eed)
}

// expand builds one sweep block's cross product.
func (a *Axes) expand(defaults Spec) ([]Spec, error) {
	type axis struct {
		n     int
		apply func(c *Spec, i int) string // returns the name part
	}
	strAxis := func(vals []string, set func(*Spec, string)) axis {
		return axis{n: len(vals), apply: func(c *Spec, i int) string {
			set(c, vals[i])
			return vals[i]
		}}
	}
	axes := []axis{
		strAxis(a.Kind, func(c *Spec, v string) { c.Kind = v }),
		strAxis(a.Policy, func(c *Spec, v string) { c.Policy = v }),
		strAxis(a.Workload, func(c *Spec, v string) { c.Workload = v }),
		strAxis(a.Age, func(c *Spec, v string) { c.Age = v }),
		strAxis(a.Schedule, func(c *Spec, v string) { c.Schedule = v }),
		{n: len(a.Shards), apply: func(c *Spec, i int) string {
			c.Shards = a.Shards[i]
			return fmt.Sprintf("s%d", a.Shards[i])
		}},
	}
	total := 1
	for _, ax := range axes {
		if ax.n > 0 {
			total *= ax.n
		}
	}
	if total > 4096 {
		return nil, fmt.Errorf("cross product of %d cells is implausibly large", total)
	}
	out := make([]Spec, 0, total)
	idx := make([]int, len(axes))
	for {
		cell := mergeSpec(a.Base, defaults)
		name := cell.Name
		for ai, ax := range axes {
			if ax.n == 0 {
				continue
			}
			part := ax.apply(&cell, idx[ai])
			if name == "" {
				name = part
			} else {
				name += "_" + part
			}
		}
		if name == "" {
			return nil, fmt.Errorf("block with no name, experiment or axes")
		}
		cell.Name = name
		out = append(out, cell)
		// Odometer increment, last axis fastest.
		ai := len(axes) - 1
		for ; ai >= 0; ai-- {
			if axes[ai].n == 0 {
				continue
			}
			idx[ai]++
			if idx[ai] < axes[ai].n {
				break
			}
			idx[ai] = 0
		}
		if ai < 0 {
			return out, nil
		}
	}
}

// mergeSpec fills c's unset fields from def. Only fields whose zero
// value means "default" participate; booleans merge with OR (a default
// of true cannot be turned off per cell, so defaults should carry only
// opt-ins).
func mergeSpec(c, def Spec) Spec {
	if c.Experiment == "" {
		c.Experiment = def.Experiment
	}
	if c.Scale == "" {
		c.Scale = def.Scale
	}
	if c.Kind == "" {
		c.Kind = def.Kind
	}
	if c.Policy == "" {
		c.Policy = def.Policy
	}
	if c.Workload == "" {
		c.Workload = def.Workload
	}
	if c.TraceFile == "" {
		c.TraceFile = def.TraceFile
	}
	if c.Requests == 0 {
		c.Requests = def.Requests
	}
	if c.Shards == 0 {
		c.Shards = def.Shards
	}
	if c.Devices == 0 {
		c.Devices = def.Devices
	}
	c.Replicate = c.Replicate || def.Replicate
	if c.Seed == 0 {
		c.Seed = def.Seed
	}
	if c.PE == 0 {
		c.PE = def.PE
	}
	if c.Hours == 0 {
		c.Hours = def.Hours
	}
	if c.Age == "" {
		c.Age = def.Age
	}
	if c.Schedule == "" {
		c.Schedule = def.Schedule
	}
	if c.TempC == 0 {
		c.TempC = def.TempC
	}
	if c.Wordlines == 0 {
		c.Wordlines = def.Wordlines
	}
	if c.SweepV == 0 {
		c.SweepV = def.SweepV
	}
	c.Collect = c.Collect || def.Collect
	if c.Fault == nil {
		c.Fault = def.Fault
	}
	c.Obs.Metrics = c.Obs.Metrics || def.Obs.Metrics
	return c
}

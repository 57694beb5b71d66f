package scenario

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

func TestSpecValidate(t *testing.T) {
	ok := Spec{Name: "fig13", Experiment: "fig13"}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	// want is the expected error fragment; "" marks a valid spec.
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"policy table", Spec{Name: "x", Experiment: "replay", Policy: "table"}, ""},
		{"policy sentinel", Spec{Name: "x", Experiment: "replay", Policy: "sentinel"}, ""},
		{"policy fallback", Spec{Name: "x", Experiment: "replay", Policy: "fallback"}, ""},
		{"policy history", Spec{Name: "x", Experiment: "replay", Policy: "history"}, ""},
		{"policy ar2", Spec{Name: "x", Experiment: "replay", Policy: "ar2"}, ""},
		{"policy sentinel+history", Spec{Name: "x", Experiment: "replay", Policy: "sentinel+history"}, ""},
		{"policy synthetic", Spec{Name: "x", Experiment: "replay", Policy: "synthetic"}, ""},
		{"empty name", Spec{Experiment: "fig13"}, "empty name"},
		{"slash in name", Spec{Name: "a/b", Experiment: "fig13"}, "'/'"},
		{"colon in name", Spec{Name: "a:b", Experiment: "fig13"}, "':'"},
		{"unknown experiment", Spec{Name: "x", Experiment: "fig99"}, "unknown experiment"},
		{"unknown scale", Spec{Name: "x", Experiment: "fig13", Scale: "huge"}, "unknown scale"},
		{"unknown kind", Spec{Name: "x", Experiment: "fig13", Kind: "slc"}, "unknown kind"},
		{"unknown policy", Spec{Name: "x", Experiment: "replay", Policy: "magic"}, "unknown policy"},
		{"unknown workload", Spec{Name: "x", Experiment: "replay", Workload: "nope"}, "nope"},
		{"negative requests", Spec{Name: "x", Experiment: "replay", Requests: -1}, "negative"},
		{"fault rate above 1", Spec{Name: "x", Experiment: "replay",
			Fault: &FaultSpec{StuckRate: 1.5}}, "outside [0,1]"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: valid spec rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestParseStrict(t *testing.T) {
	if _, err := Parse([]byte(`{"name":"m","cells":[{"name":"fig13","experiment":"fig13"}]}`)); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
	for _, bad := range []string{
		`{"name":"m","cells":[{"name":"x","experiments":"fig13"}]}`, // typoed field
		// Not cell axes: every cell runs on one device geometry, and the
		// slow-read ring belongs to the CLI registry.
		`{"name":"m","cells":[{"name":"x","experiment":"replay","device":{"channels":2}}]}`,
		`{"name":"m","cells":[{"name":"x","experiment":"replay","obs":{"metrics":true,"slow_n":4}}]}`,
		`{"name":"m","defaults":{"device":{"channels":2}},"cells":[{"name":"x","experiment":"replay"}]}`,
		`{"name":"m"} trailing`,
		`{"cells":[]}`, // no name
		`not json`,
		`{"name":"m","cells":[{"name":"x","experiment":"replay","workers":2}]}`, // removed knob
		// Not a sweep axis: only kind, policy, workload, age, schedule
		// and shards are.
		`{"name":"m","sweep":[{"base":{"experiment":"replay"},"devices":[1,2]}]}`,
	} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestMatrixExpand(t *testing.T) {
	m := &Matrix{
		Name:     "t",
		Defaults: Spec{Scale: "quick", Requests: 1234},
		Cells:    []Spec{{Name: "fig13", Experiment: "fig13"}},
		Sweep: []Axes{{
			Base:     Spec{Experiment: "replay", Policy: "synthetic"},
			Workload: []string{"hm_0", "prxy_0"},
			Shards:   []int{1, 2},
		}},
		Golden: map[string]string{"fig13": "00ddeeff00112233"},
	}
	cells, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 5 {
		t.Fatalf("expanded %d cells, want 5", len(cells))
	}
	if cells[0].Name != "fig13" || cells[0].Golden != "00ddeeff00112233" {
		t.Errorf("explicit cell: %+v", cells[0])
	}
	if cells[0].Scale != "quick" || cells[0].Requests != 1234 {
		t.Errorf("defaults not applied: %+v", cells[0])
	}
	wantNames := []string{"hm_0_s1", "hm_0_s2", "prxy_0_s1", "prxy_0_s2"}
	for i, w := range wantNames {
		c := cells[i+1]
		if c.Name != w {
			t.Errorf("sweep cell %d named %q, want %q", i, c.Name, w)
		}
		if c.Experiment != "replay" || c.Policy != "synthetic" {
			t.Errorf("sweep cell %q lost base fields: %+v", c.Name, c)
		}
	}
	// Seeds depend only on (matrix seed, name): never on position, so
	// filtering a matrix down cannot change a surviving cell's stream.
	for _, c := range cells {
		if c.Seed != SplitSeed(1, c.Name) {
			t.Errorf("cell %q seed %d, want SplitSeed", c.Name, c.Seed)
		}
	}

	m.Golden["ghost"] = "beef"
	if _, err := m.Expand(); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("golden for unknown cell: got %v", err)
	}
	delete(m.Golden, "ghost")

	m.Cells = append(m.Cells, Spec{Name: "fig13", Experiment: "fig13"})
	if _, err := m.Expand(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate cell name: got %v", err)
	}
}

func TestExpandSeedPinned(t *testing.T) {
	m := &Matrix{Name: "t", Cells: []Spec{{Name: "fig13", Experiment: "fig13", Seed: 42}}}
	cells, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Seed != 42 {
		t.Errorf("pinned seed overridden: %d", cells[0].Seed)
	}
}

// TestMatrixRoundTrip pins the validate-then-reencode fixpoint the fuzz
// target checks on arbitrary inputs.
func TestMatrixRoundTrip(t *testing.T) {
	doc := []byte(`{"name":"m","seed":7,"defaults":{"scale":"quick"},` +
		`"cells":[{"name":"fig13","experiment":"fig13","golden":"abcd"}],` +
		`"sweep":[{"base":{"experiment":"replay"},"workload":["hm_0"],"shards":[1,2]}]}`)
	m1, err := Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	enc1, err := json.Marshal(m1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Parse(enc1)
	if err != nil {
		t.Fatalf("re-parse of own encoding failed: %v", err)
	}
	enc2, err := json.Marshal(m2)
	if err != nil {
		t.Fatal(err)
	}
	if string(enc1) != string(enc2) {
		t.Errorf("round trip not a fixpoint:\n%s\n%s", enc1, enc2)
	}
}

func TestRegistry(t *testing.T) {
	ents := Entries()
	seen := map[string]bool{}
	var all []string
	for _, e := range ents {
		if e.Name == "" || e.Run == nil {
			t.Errorf("entry %+v has an empty name or nil runner", e)
		}
		if seen[e.Name] {
			t.Errorf("duplicate entry %q", e.Name)
		}
		seen[e.Name] = true
		if _, err := Lookup(e.Name); err != nil {
			t.Errorf("Lookup(%q): %v", e.Name, err)
		}
		if e.InAll {
			all = append(all, e.Name)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("Lookup of unknown entry succeeded")
	}
	// The table order is the -exp all order.
	want := []string{"fig2", "fig3", "fig45", "fig6", "fig7", "fig8", "fig10",
		"table1", "fig12", "fig13", "fig14", "errcomp", "fig19", "robust",
		"ablation-placement", "ablation-tempbands", "ablation-delta",
		"ablation-combined", "adaptive", "lifetime"}
	if !slices.Equal(all, want) {
		t.Errorf("-exp all order %v, want %v", all, want)
	}
	for _, name := range []string{"replay", "charlab", "serve"} {
		if !seen[name] {
			t.Errorf("missing entry %q", name)
		}
	}
}

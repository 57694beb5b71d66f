package scenario

import (
	"path/filepath"
	"testing"
)

// TestGoldenParity asserts the registry path produces byte-identical
// payloads to the pre-registry experiment functions: the digests here
// are the same constants internal/experiments/golden_test.go has pinned
// since before the scenario layer existed. If these break, the rewiring
// changed results — a bug, never a re-record.
func TestGoldenParity(t *testing.T) {
	if testing.Short() {
		t.Skip("golden experiments are slow; skipped in -short")
	}
	for _, tc := range []struct{ exp, want string }{
		{"fig2", "ef6135903f7b556c"},
		{"fig13", "30d208461a899976"},
		// The paper matrix's replay experiments (scenarios/paper.json):
		// both replay materialized traces through the 1-shard engine.
		{"adaptive", "fa986b4c3bf62107"},
		{"lifetime", "07b28d539682efed"},
	} {
		res := runOne(t, Spec{Name: tc.exp, Experiment: tc.exp, Scale: "quick", Requests: 6000})
		if res.Digest != tc.want {
			t.Errorf("%s digest %s, want %s", tc.exp, res.Digest, tc.want)
		}
	}
}

// TestSmokeMatrixGoldens runs the committed smoke tier end to end: every
// cell carries a golden digest, so this pins the replay cells' read
// policies and their sampling seeds, not just the figures above.
func TestSmokeMatrixGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("the smoke matrix takes seconds; skipped in -short")
	}
	m, err := Load(filepath.Join("..", "..", "scenarios", "smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(m, RunOptions{})
	if res == nil {
		t.Fatal(err)
	}
	for _, c := range res.Failed() {
		t.Errorf("%s: %s", c.Name, c.Err)
	}
}

// Package deadcheck holds a test that fails when an exported identifier
// declared under internal/ has no caller outside tests.
package deadcheck

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// allow names each exported identifier that only tests use and says why
// it stays. Keys are as the report prints them: the package path below
// internal/, then the identifier, a method as Type.Name or (*Type).Name,
// a field as Type.Field.
var allow = map[string]reason{
	// TestHashedEagerMatchesCellVth holds the eager Vth vector to it.
	"physics.(*Model).CellVth": oracle,
	// TestGaussFromHashMatchesNormInv bounds the table-driven Gaussian by it.
	"mathx.NormInv": oracle,
	// The FTL reference, fault and replay tests check the map bijection
	// after every step through it.
	"ftl.(*FTL).CheckInvariants": oracle,

	// The ecc and sentinel tests build error and sense bitmaps bit by bit.
	"flash.Bitmap.Set": accessor,
	// Tests in six packages build fixture chips in one expression.
	"flash.MustNew": accessor,
	// The engine test bounds histogram quantiles by the bucket resolution.
	"mathx.(*LogHist).WidthFactor": accessor,
	// The trace and engine tests compare streamed sources against the
	// materialized trace.
	"trace.Collect": accessor,

	// Page indices by name: PageLSB is used, and the MSB page is Bits-1.
	"flash.PageCSB":  enum,
	"flash.PageCSB2": enum,
}

// TestNoDeadExports type-checks the non-test packages of the module and
// of perfbench and fails on every exported identifier declared under
// internal/ that neither uses, unless allow names it.
func TestNoDeadExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules and the standard library from source")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	r, err := check([]string{root, filepath.Join(root, "perfbench")}, allow)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Dead) > 0 {
		t.Errorf("%d exported identifiers have no non-test caller; delete them or allowlist them with a reason:\n\t%s",
			len(r.Dead), strings.Join(r.Dead, "\n\t"))
	}
	if len(r.Stale) > 0 {
		t.Errorf("stale allowlist entries:\n\t%s", strings.Join(r.Stale, "\n\t"))
	}
}

// TestCheckFixture runs the check on testdata/fixture: it must flag the
// unused exported func, method and field, keep the methods that an
// interface reaches (named, anonymous assertion, fmt.Stringer) and the
// method of a generic type called on an instantiation, and report both
// kinds of stale allowlist entry.
func TestCheckFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the standard library from source")
	}
	r, err := check([]string{filepath.Join("testdata", "fixture")}, map[string]reason{
		"lib.Allowed": accessor,
		"lib.Stale":   accessor,
		"lib.Gone":    oracle,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantDead := []string{"lib.Dead", "lib.Square.Perimeter", "lib.Square.Unused"}
	wantStale := []string{"lib.Gone (not declared)", "lib.Stale (used by non-test code)"}
	if !slices.Equal(r.Dead, wantDead) {
		t.Errorf("dead = %q, want %q", r.Dead, wantDead)
	}
	if !slices.Equal(r.Stale, wantStale) {
		t.Errorf("stale = %q, want %q", r.Stale, wantStale)
	}
}

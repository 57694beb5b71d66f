package lib

import "testing"

// TestOnlyUses names identifiers that no non-test file uses; test uses
// must not count.
func TestOnlyUses(t *testing.T) {
	Dead()
	s := Square{Unused: 1}
	if s.Perimeter() != 0 {
		t.Fatal("perimeter")
	}
}

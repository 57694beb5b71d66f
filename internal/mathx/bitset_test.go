package mathx

import (
	"slices"
	"testing"
)

// TestBitsetSetRange: the word-wise range fill must equal bit-by-bit
// Set across every alignment of the range endpoints — same-word spans,
// word-boundary-straddling spans, and full-word interiors.
func TestBitsetSetRange(t *testing.T) {
	const n = 400
	cases := []struct{ lo, count int64 }{
		{0, 1}, {0, 64}, {0, 65}, {63, 1}, {63, 2}, {5, 40},
		{60, 10}, {64, 64}, {1, 200}, {100, 0}, {100, -3}, {399, 1},
		{320, 80}, {0, 400},
	}
	for _, c := range cases {
		a, b := NewBitset(n), NewBitset(n)
		a.SetRange(c.lo, c.count)
		for i := int64(0); i < c.count; i++ {
			b.Set(c.lo + i)
		}
		if !slices.Equal(a.words, b.words) {
			t.Fatalf("SetRange(%d,%d) = %x, want %x", c.lo, c.count, a.words, b.words)
		}
	}

	// Overlapping ranges accumulate like repeated Sets.
	b := NewBitset(n)
	b.SetRange(10, 50)
	b.SetRange(40, 100)
	want := NewBitset(n)
	for i := int64(10); i < 140; i++ {
		want.Set(i)
	}
	if !slices.Equal(b.words, want.words) {
		t.Fatalf("overlapping ranges = %x, want %x", b.words, want.words)
	}

	// Out-of-universe ranges panic, as Set does.
	for _, c := range []struct{ lo, count int64 }{{-1, 5}, {398, 3}, {400, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetRange(%d,%d) did not panic", c.lo, c.count)
				}
			}()
			NewBitset(n).SetRange(c.lo, c.count)
		}()
	}
}

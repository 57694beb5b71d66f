package flash

import (
	"math/bits"
	"testing"
	"testing/quick"

	"sentinel3d/internal/mathx"
)

func TestBitmapGetSet(t *testing.T) {
	b := NewBitmap(130)
	if len(b) != 3 {
		t.Fatalf("NewBitmap(130) has %d words, want 3", len(b))
	}
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i, true)
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
		b.Set(i, false)
		if b.Get(i) {
			t.Fatalf("bit %d not cleared", i)
		}
	}
}

func TestBitmapPopCount(t *testing.T) {
	b := NewBitmap(200)
	idx := []int{0, 1, 64, 128, 199}
	for _, i := range idx {
		b.Set(i, true)
	}
	if got := b.popCount(); got != len(idx) {
		t.Fatalf("PopCount = %d, want %d", got, len(idx))
	}
}

func TestXorCountMatchesRangeCount(t *testing.T) {
	// Property: XorCount == XorCountRange over the full extent.
	f := func(seed uint16) bool {
		r := mathx.NewRand(uint64(seed))
		n := 64 + r.Intn(300)
		a, b := NewBitmap(n), NewBitmap(n)
		for i := 0; i < n; i++ {
			a.Set(i, r.Float64() < 0.5)
			b.Set(i, r.Float64() < 0.5)
		}
		return a.XorCount(b) == a.XorCountRange(b, 0, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestXorCountRangeSubset(t *testing.T) {
	a, b := NewBitmap(128), NewBitmap(128)
	a.Set(10, true)
	a.Set(100, true)
	if got := a.XorCountRange(b, 0, 50); got != 1 {
		t.Fatalf("range [0,50) diff = %d, want 1", got)
	}
	if got := a.XorCountRange(b, 50, 128); got != 1 {
		t.Fatalf("range [50,128) diff = %d, want 1", got)
	}
}

// xorCountRangeRef is the pre-optimization bit-by-bit implementation,
// kept as the oracle for the masked-word rewrite.
func xorCountRangeRef(a, b Bitmap, start, end int) int {
	n := 0
	for i := start; i < end; i++ {
		if a.Get(i) != b.Get(i) {
			n++
		}
	}
	return n
}

func TestXorCountRangeMatchesBitByBit(t *testing.T) {
	f := func(seed uint16) bool {
		r := mathx.NewRand(uint64(seed))
		n := 64 + r.Intn(300)
		a, b := NewBitmap(n), NewBitmap(n)
		for i := 0; i < n; i++ {
			a.Set(i, r.Float64() < 0.5)
			b.Set(i, r.Float64() < 0.5)
		}
		for trial := 0; trial < 16; trial++ {
			start := r.Intn(n + 1)
			end := start + r.Intn(n+1-start)
			if a.XorCountRange(b, start, end) != xorCountRangeRef(a, b, start, end) {
				return false
			}
			if a.PopCountRange(start, end) != xorCountRangeRef(a, NewBitmap(n), start, end) {
				return false
			}
		}
		// Degenerate ranges.
		return a.XorCountRange(b, 5, 5) == 0 && a.PopCountRange(n, n) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// popCount returns the number of set bits of b.
func (b Bitmap) popCount() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

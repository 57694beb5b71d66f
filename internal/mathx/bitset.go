package mathx

import "math/bits"

// Bitset is a fixed-capacity set of non-negative integers backed by a
// packed word array. The replay engine's precondition pass uses it to
// deduplicate trace LPNs when the address bound is known up front:
// inserting is one OR, and VisitErr yields members in ascending order —
// the same order a sort-based dedup produces — without the sort.
type Bitset struct {
	words []uint64
	n     int64
}

// NewBitset returns a set over [0, n).
func NewBitset(n int64) *Bitset {
	if n < 0 {
		n = 0
	}
	return &Bitset{words: make([]uint64, (n+63)>>6), n: n}
}

// Cap returns the exclusive upper bound of the set's universe.
func (b *Bitset) Cap() int64 { return b.n }

// Set inserts i. Out-of-range values panic (callers size the set from a
// validated bound).
func (b *Bitset) Set(i int64) {
	b.words[i>>6] |= 1 << uint(i&63)
}

// SetRange inserts every value in [lo, lo+n), ORing whole words instead
// of looping bit by bit — the shape of a multi-page trace request. Like
// Set, out-of-range values panic; n <= 0 inserts nothing.
func (b *Bitset) SetRange(lo, n int64) {
	if n <= 0 {
		return
	}
	hi := lo + n - 1 // inclusive
	if lo < 0 || hi >= b.n {
		panic("mathx: SetRange outside bitset universe")
	}
	w0, w1 := lo>>6, hi>>6
	first := ^uint64(0) << uint(lo&63)
	last := ^uint64(0) >> uint(63-hi&63)
	if w0 == w1 {
		b.words[w0] |= first & last
		return
	}
	b.words[w0] |= first
	for w := w0 + 1; w < w1; w++ {
		b.words[w] = ^uint64(0)
	}
	b.words[w1] |= last
}

// VisitErr calls fn for every member in ascending order. It stops at
// the first error fn returns and propagates it.
func (b *Bitset) VisitErr(fn func(i int64) error) error {
	for wi, w := range b.words {
		base := int64(wi) << 6
		for w != 0 {
			t := bits.TrailingZeros64(w)
			if err := fn(base + int64(t)); err != nil {
				return err
			}
			w &= w - 1
		}
	}
	return nil
}

package flash

import "sync"

// The read kernel recycles its large scratch buffers (threshold-voltage
// vectors, bitmaps, sweep histograms) through sync.Pools so that
// steady-state reads allocate nothing. A pooled slice would normally cost
// one heap allocation per Put (boxing the 24-byte slice header into an
// interface), which defeats the purpose — so each pool is a pair: `full`
// holds boxed buffers, `empty` recycles the boxes themselves. In steady
// state both Get and Put are allocation-free.
type slicePool[T any] struct {
	full  sync.Pool // *sbox[T] with a buffer
	empty sync.Pool // *sbox[T] drained by get
}

type sbox[T any] struct{ s []T }

// get returns a slice of length n with arbitrary contents. Callers that
// need zeroed memory must clear it.
func (p *slicePool[T]) get(n int) []T {
	if b, ok := p.full.Get().(*sbox[T]); ok {
		s := b.s
		b.s = nil
		p.empty.Put(b)
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]T, n)
}

// put recycles a slice obtained from get (or anywhere else; capacity is
// all that matters). put(nil) is a no-op.
func (p *slicePool[T]) put(s []T) {
	if cap(s) == 0 {
		return
	}
	b, ok := p.empty.Get().(*sbox[T])
	if !ok {
		b = new(sbox[T])
	}
	b.s = s[:0]
	p.full.Put(b)
}

var (
	vthPool    slicePool[float64]
	wordPool   slicePool[uint64]
	intPool    slicePool[int]
	statePool  slicePool[uint8]
	idxPool    slicePool[int32]
	tabPool    slicePool[uint32]
	readOpPool sync.Pool // *ReadOp
)

// GetBitmap returns a zeroed bitmap for n bits from the shared pool.
// Pair it with PutBitmap on hot paths; an unpaired GetBitmap is exactly
// NewBitmap.
func GetBitmap(n int) Bitmap {
	b := Bitmap(wordPool.get((n + 63) / 64))
	clear(b)
	return b
}

// PutBitmap recycles a bitmap. The caller must not use b afterwards, and
// must not put the same bitmap twice.
func PutBitmap(b Bitmap) { wordPool.put(b) }

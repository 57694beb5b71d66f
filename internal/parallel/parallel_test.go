package parallel

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
)

func TestWorkersDefaultAndOverride(t *testing.T) {
	defer SetWorkers(SetWorkers(0))
	if Workers() < 1 {
		t.Fatalf("Workers() = %d, want >= 1", Workers())
	}
	SetWorkers(7)
	if got := Workers(); got != 7 {
		t.Fatalf("Workers() = %d after SetWorkers(7)", got)
	}
	SetWorkers(-3) // negative restores automatic
	if got := Workers(); got < 1 {
		t.Fatalf("Workers() = %d after reset", got)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 64} {
		const n = 1000
		var hits [n]atomic.Int64
		forEach(workers, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachEmptyAndSingle(t *testing.T) {
	ForEach(0, func(int) { t.Fatal("fn called for n=0") })
	calls := 0
	forEach(8, 1, func(i int) { calls++ })
	if calls != 1 {
		t.Fatalf("n=1: fn called %d times", calls)
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic did not propagate to caller")
		}
	}()
	forEach(4, 100, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
}

func TestForEachErrReturnsLowestIndexError(t *testing.T) {
	defer SetWorkers(SetWorkers(4))
	err := ForEachErr(50, func(i int) error {
		if i == 12 || i == 40 {
			return fmt.Errorf("fail@%d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail@12" {
		t.Fatalf("got %v, want fail@12", err)
	}
	if err := ForEachErr(50, func(int) error { return nil }); err != nil {
		t.Fatalf("unexpected error %v", err)
	}
}

func TestMapOrderIndependentOfWorkers(t *testing.T) {
	want := Map(200, func(i int) int { return i * i })
	defer SetWorkers(SetWorkers(0))
	for _, workers := range []int{1, 3, 16} {
		SetWorkers(workers)
		got := Map(200, func(i int) int { return i * i })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: got[%d]=%d want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMapErr(t *testing.T) {
	sentinel := errors.New("nope")
	if _, err := MapErr(10, func(i int) (int, error) {
		if i == 3 {
			return 0, sentinel
		}
		return i, nil
	}); !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want %v", err, sentinel)
	}
	vs, err := MapErr(4, func(i int) (int, error) { return i + 1, nil })
	if err != nil || len(vs) != 4 || vs[3] != 4 {
		t.Fatalf("got %v, %v", vs, err)
	}
}

// TestMapFoldFloatDeterminism is the core determinism property: a
// non-associative float fold over Map's results must give bit-identical
// results at every worker count because Map fills index-addressed slots
// and the fold runs serially in index order.
func TestMapFoldFloatDeterminism(t *testing.T) {
	fold := func() float64 {
		acc := 1.0
		for _, v := range Map(5000, func(i int) float64 { return math.Sin(float64(i)) * 1e-3 }) {
			acc = acc*1.0000001 + v
		}
		return acc
	}
	defer SetWorkers(SetWorkers(1))
	want := fold()
	for _, workers := range []int{2, 8, 32} {
		SetWorkers(workers)
		if got := fold(); got != want {
			t.Fatalf("workers=%d: %v != %v (non-deterministic fold)", workers, got, want)
		}
	}
}

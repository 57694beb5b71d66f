// Package parallel provides the bounded fan-out primitives used by the
// experiment sweeps: a worker pool sized from the machine (with a global
// override wired to the -workers CLI flags) and ForEach / Map helpers
// over integer index ranges.
//
// Determinism contract: the helpers distribute *work* across goroutines
// but never results. Map writes each index's result into an
// index-addressed slot, and callers fold in ascending index order, so any
// experiment built on them produces byte-identical output at workers=1
// and workers=N. Callers using ForEach must follow the same discipline:
// write only to per-index slots, merge serially afterwards.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// override holds the global worker-count override; 0 means automatic
// (GOMAXPROCS).
var override atomic.Int64

// Workers returns the worker count the helpers will use: the -workers
// override when set, otherwise GOMAXPROCS (which itself defaults to
// runtime.NumCPU).
func Workers() int {
	if n := override.Load(); n > 0 {
		return int(n)
	}
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// SetWorkers overrides the global worker count; n <= 0 restores the
// automatic (GOMAXPROCS) sizing. It returns the previous override (0 if
// automatic) so tests can restore it.
func SetWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(override.Swap(int64(n)))
}

// ForEach runs fn(i) for every i in [0, n) on up to Workers()
// goroutines. Indices are handed out atomically, so fn must be safe to
// call concurrently for distinct indices; with one worker everything
// runs inline on the caller's goroutine. A panic in any fn is re-raised
// on the caller's goroutine after the pool drains.
func ForEach(n int, fn func(i int)) {
	forEach(Workers(), n, fn)
}

func forEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r
					}
					panicMu.Unlock()
					// Park the index counter past the end so the other
					// workers stop picking up new work.
					next.Store(int64(n))
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// RunWorkers runs fn(w) for every w in [0, n) on n dedicated goroutines
// and blocks until all of them return. Unlike ForEach, which hands out
// indices dynamically, each body keeps its worker index for the pool's
// lifetime — the shape long-lived per-worker state (queues, arenas)
// needs. With n == 1 fn runs inline on the caller's goroutine. A panic
// in any fn is re-raised on the caller's goroutine after every worker
// exits.
func RunWorkers(n int, fn func(w int)) {
	if n <= 0 {
		return
	}
	if n == 1 {
		fn(0)
		return
	}
	var (
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r
					}
					panicMu.Unlock()
				}
			}()
			fn(w)
		}(w)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// ForEachErr is ForEach for index bodies that can fail: it runs every
// index and returns the error of the lowest failing index (deterministic
// regardless of scheduling), or nil.
func ForEachErr(n int, fn func(i int) error) error {
	errs := make([]error, n)
	ForEach(n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map evaluates fn over [0, n) in parallel and returns the results in
// index order.
func Map[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, func(i int) { out[i] = fn(i) })
	return out
}

// MapErr is Map for fallible bodies; on failure it returns the error of
// the lowest failing index.
func MapErr[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachErr(n, func(i int) error {
		v, err := fn(i)
		out[i] = v
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

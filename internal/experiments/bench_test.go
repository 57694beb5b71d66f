package experiments

import (
	"fmt"
	"runtime"
	"testing"

	"sentinel3d/internal/parallel"
)

// BenchmarkParallelSpeedup runs a fan-out-heavy experiment at one worker
// and at all CPUs; the ratio of the two times is the parallel speedup of
// the experiment engine on this machine. The trained-model cache is
// warmed first so neither sub-benchmark pays the one-off training cost.
func BenchmarkParallelSpeedup(b *testing.B) {
	s := Quick()
	if _, err := Fig13RetryCount(s); err != nil {
		b.Fatal(err)
	}
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, w := range counts {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			defer parallel.SetWorkers(parallel.SetWorkers(w))
			for i := 0; i < b.N; i++ {
				if _, err := Fig13RetryCount(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

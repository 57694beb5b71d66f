package experiments

import (
	"fmt"
	"runtime"
	"syscall"
	"testing"

	"sentinel3d/internal/flash"
	"sentinel3d/internal/parallel"
	"sentinel3d/internal/physics"
	"sentinel3d/internal/retry"
	"sentinel3d/internal/sentinel"
	"sentinel3d/internal/ssdsim"
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

// cpuMillis returns the CPU time, user plus system, this process has
// used so far, in milliseconds.
func cpuMillis(b *testing.B) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

// BenchmarkTrainModel fits the quick-scale sentinel model of each kind
// from a fresh training chip per iteration, the manufacturing-time
// characterization every replay setup pays. Training fans out over
// wordlines, so besides wall time it reports the process's CPU time per
// fit (cpu-ms/op, from getrusage).
func BenchmarkTrainModel(b *testing.B) {
	s := Quick()
	for _, kind := range []flash.Kind{flash.TLC, flash.QLC} {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			cpu0 := cpuMillis(b)
			for i := 0; i < b.N; i++ {
				chip, err := flash.New(s.ChipConfig(kind, 1))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sentinel.Train(chip, s.trainConfig(1)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric((cpuMillis(b)-cpu0)/float64(b.N), "cpu-ms/op")
		})
	}
}

// BenchmarkBuildSamplerReplay measures one retry-outcome pool at the
// replay setup's shape: a quick-scale TLC evaluation chip at the worn
// point (5000 P/E, one year), the sentinel policy, every other wordline
// (16) read on each of its 3 pages 3 times. The lifetime replay builds
// three of these, one per retention age.
func BenchmarkBuildSamplerReplay(b *testing.B) {
	s := Quick()
	model, err := s.TrainModel(flash.TLC, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := s.ChipConfig(flash.TLC, 2)
	eng, err := s.Engine(model, cfg)
	if err != nil {
		b.Fatal(err)
	}
	chip, err := s.BuildEvalChip(flash.TLC, 2, eng, 5000, physics.YearHours)
	if err != nil {
		b.Fatal(err)
	}
	ctl, err := s.Controller(chip, s.MaxRetries)
	if err != nil {
		b.Fatal(err)
	}
	var wls []int
	for wl := 0; wl < cfg.WordlinesPerBlock(); wl += 2 {
		wls = append(wls, wl)
	}
	pol := retry.NewSentinelPolicy(eng)
	b.ReportAllocs()
	b.ResetTimer()
	cpu0 := cpuMillis(b)
	for i := 0; i < b.N; i++ {
		if _, err := ssdsim.BuildSampler(ctl, pol, 0, wls, 3, 12); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric((cpuMillis(b)-cpu0)/float64(b.N), "cpu-ms/op")
}

package experiments

import (
	"testing"

	"sentinel3d/internal/parallel"
)

// withWorkers runs fn with the parallel worker count pinned to n.
func withWorkers(n int, fn func()) {
	defer parallel.SetWorkers(parallel.SetWorkers(n))
	fn()
}

// TestWorkerCountDeterminism is the regression gate for the parallel
// engine's core contract: the rendered Result of an experiment is
// byte-identical whether the per-wordline fan-out runs on one worker or
// many. Every experiment assembles per-wordline results into
// index-addressed slots and folds them serially in index order, so the
// worker count can only change timing, never bytes.
func TestWorkerCountDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full experiments twice")
	}
	s := Quick()
	cases := []struct {
		name string
		run  func() (string, error)
	}{
		{"Fig2ErrorVsOffset", func() (string, error) {
			r, err := Fig2ErrorVsOffset(s)
			if err != nil {
				return "", err
			}
			return r.Result().Text(), nil
		}},
		{"Fig13RetryCount", func() (string, error) {
			r, err := Fig13RetryCount(s)
			if err != nil {
				return "", err
			}
			return r.Result().Text(), nil
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var serial, fanned string
			var err1, err2 error
			withWorkers(1, func() { serial, err1 = tc.run() })
			if err1 != nil {
				t.Fatal(err1)
			}
			withWorkers(8, func() { fanned, err2 = tc.run() })
			if err2 != nil {
				t.Fatal(err2)
			}
			if serial != fanned {
				t.Errorf("output differs between workers=1 and workers=8:\n"+
					"--- workers=1 ---\n%s\n--- workers=8 ---\n%s", serial, fanned)
			}
		})
	}
}

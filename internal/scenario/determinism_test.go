package scenario

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"sentinel3d/internal/obs"
	"sentinel3d/internal/parallel"
)

// TestMatrixWorkerDeterminism pins the matrix-level determinism
// contract: the full per-cell fingerprint (names, seeds, digests,
// renders) is byte-identical whether the matrix runs on one worker or
// many. This is what lets CI shard the smoke matrix across jobs and
// still gate against one set of golden digests.
func TestMatrixWorkerDeterminism(t *testing.T) {
	m := syntheticMatrix()
	run := func(workers int) string {
		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)
		res, err := Run(m, RunOptions{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return fingerprint(res)
	}
	one := run(1)
	many := run(runtime.GOMAXPROCS(0))
	if one != many {
		t.Errorf("matrix fingerprint differs between 1 and %d workers:\n%q\n%q",
			runtime.GOMAXPROCS(0), one, many)
	}
	// And re-running at the same width is a fixpoint too.
	if again := run(1); again != one {
		t.Errorf("matrix fingerprint differs between reruns at 1 worker")
	}
}

// TestHistoryPolicyWorkerDeterminism pins the read-only start-offset
// contract: replay cells under the history policies (start offsets
// inferred once, never rewritten) digest byte-identically at 1, 4 and
// 8 workers.
func TestHistoryPolicyWorkerDeterminism(t *testing.T) {
	for _, policy := range []string{"history", "sentinel+history"} {
		spec := Spec{Name: "c", Experiment: "replay", Policy: policy,
			Workload: "hm_0", Requests: 2000, Shards: 2, Seed: 31}
		run := func(workers int) string {
			prev := parallel.SetWorkers(workers)
			defer parallel.SetWorkers(prev)
			return runOne(t, spec).Digest
		}
		ref := run(1)
		for _, workers := range []int{4, 8} {
			if got := run(workers); got != ref {
				t.Errorf("%s digest at %d workers = %s, want %s (1 worker)",
					policy, workers, got, ref)
			}
		}
	}
}

// TestCellObsDeterminism asserts instrumentation does not perturb
// results: a cell run with per-cell metrics enabled, or under a
// CLI-style registry with the slow-read ring on, digests identically to
// the same cell uninstrumented, on one device and on a fleet (whose
// registry needs a shard per engine shard of every device).
func TestCellObsDeterminism(t *testing.T) {
	for _, devices := range []int{1, 2} {
		base := Spec{Name: "c", Experiment: "replay", Policy: "synthetic",
			Workload: "hm_0", Requests: 2000, Shards: 2, Devices: devices, Seed: 99}
		plain := runOne(t, base)
		obsd := base
		obsd.Obs = ObsSpec{Metrics: true}
		reg := obs.NewRegistry(2 * devices)
		reg.KeepSlowest(4)
		for name, inst := range map[string]CellResult{
			"cell registry": runOne(t, obsd),
			"cli registry":  runOneWith(t, base, RunOptions{Obs: reg}),
		} {
			if plain.Digest != inst.Digest {
				t.Errorf("devices=%d, %s: obs changed the digest: %s vs %s",
					devices, name, plain.Digest, inst.Digest)
			}
			if inst.Metrics["obs-series"] <= 0 {
				t.Errorf("devices=%d, %s: instrumented cell exported no obs series: %v",
					devices, name, inst.Metrics)
			}
		}
		if len(reg.Snapshot().Slow) == 0 {
			t.Errorf("devices=%d: slow ring kept no reads", devices)
		}
	}
}

// TestServeCellObs: a serve cell with metrics on instruments its fleet,
// whose registry needs one shard per fleet shard.
func TestServeCellObs(t *testing.T) {
	c := runOne(t, Spec{Name: "s", Experiment: "serve", Requests: 40, Seed: 5,
		Obs: ObsSpec{Metrics: true}})
	if c.Err != "" {
		t.Fatal(c.Err)
	}
	if c.Metrics["obs-series"] <= 0 {
		t.Errorf("instrumented serve cell exported no obs series: %v", c.Metrics)
	}
}

// fingerprint concatenates every deterministic per-cell field. Two runs
// of the same matrix must produce byte-identical fingerprints at any
// worker count; the determinism regression asserts exactly that.
func fingerprint(m *MatrixResult) string {
	var b strings.Builder
	for _, c := range m.Cells {
		fmt.Fprintf(&b, "%s\x00%s\x00%d\x00%s\x00%s\x00%s\x1e",
			c.Name, c.Experiment, c.Seed, c.Digest, c.Render, c.Err)
	}
	return b.String()
}

package ssdsim

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sentinel3d/internal/mathx"
	"sentinel3d/internal/obs"
	"sentinel3d/internal/parallel"
	"sentinel3d/internal/trace"
)

// counterValue digs a merged counter out of a registry snapshot.
func counterValue(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	t.Fatalf("counter %s not in snapshot", name)
	return 0
}

// TestEngineMetricsMatchReport: with observability attached, the
// registry's merged counters and read-latency histogram must agree
// exactly with the report the same replay produced, across the
// simulator and FTL families — in histogram and in collect mode, and
// for a replay cancelled mid-stream, whose registry must hold the
// partial report's totals.
func TestEngineMetricsMatchReport(t *testing.T) {
	cfg := engineConfig()
	reqs := engineTrace(t, 20000)
	for _, c := range []struct {
		name    string
		collect bool
		cancel  bool
	}{{"hist", false, false}, {"collect", true, false}, {"canceled", false, true}} {
		t.Run(c.name, func(t *testing.T) {
			reg := obs.NewRegistry(4)
			reg.KeepSlowest(16)
			rc := ReplayConfig{
				Sim: cfg, Shards: 4, Precondition: true, Metrics: reg,
				CollectLatencies: c.collect,
			}
			open := trace.SliceOpener(reqs)
			if c.cancel {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				rc.Ctx, rc.ChunkRequests = ctx, 1000
				opens := 0
				open = func() (trace.Source, error) {
					if opens++; opens == 1 {
						return trace.Sliced(reqs), nil // the precondition pass runs whole
					}
					return &cancelAfterSource{src: trace.Sliced(reqs), cancel: cancel, after: 12345}, nil
				}
			}
			eng, err := NewEngine(rc, benchSampler())
			if err != nil {
				t.Fatal(err)
			}
			rep, err := eng.Replay(open)
			if c.cancel {
				if !errors.Is(err, context.Canceled) || rep.Requests == 0 || rep.Requests >= len(reqs) {
					t.Fatalf("cancelled replay: err %v after %d of %d requests", err, rep.Requests, len(reqs))
				}
			} else if err != nil {
				t.Fatal(err)
			}
			checks := []struct {
				name string
				want int64
			}{
				{"ssdsim.read_requests", int64(rep.Reads)},
				{"ssdsim.write_requests", int64(rep.Writes)},
				{"ssdsim.retries", rep.TotalRetries},
				{"ssdsim.aux_senses", rep.AuxSenses},
				{"ssdsim.uncorrectable_reads", rep.UncorrectableReads},
				{"ssdsim.fallback_reads", rep.FallbackReads},
				{"ssdsim.unmapped_reads", rep.UnmappedReads},
				{"ssdsim.reordered_arrivals", rep.ReorderedArrivals},
				{"ftl.gc_relocations", rep.GCWrites},
				{"ftl.retired_blocks", rep.RetiredBlocks},
			}
			for _, c := range checks {
				if got := counterValue(t, reg, c.name); got != c.want {
					t.Errorf("%s = %d, report says %d", c.name, got, c.want)
				}
			}
			if rep.Reads == 0 || rep.TotalRetries == 0 || rep.AuxSenses == 0 || rep.GCWrites == 0 {
				t.Fatalf("degenerate workload: %+v", rep.Summary())
			}
			// The latency histogram holds every read request: the same
			// buckets as the report's, and the same sum up to the
			// registry's fixed-point resolution (2^-20 per shard).
			snap := reg.Snapshot()
			var lat *mathx.LogHist
			for _, h := range snap.Hists {
				if h.Name == "ssdsim.read_latency_us" {
					lat = h.Hist
				}
			}
			if lat == nil || lat.Count() != int64(rep.Reads) || lat.Count() != rep.hist.Count() {
				t.Fatalf("read latency hist %v, report has %d reads", lat, rep.Reads)
			}
			if d := math.Abs(lat.Sum() - rep.hist.Sum()); d > 4.0/(1<<20)+1e-12*rep.hist.Sum() {
				t.Errorf("read latency hist sum %v, report's %v", lat.Sum(), rep.hist.Sum())
			}
			for _, p := range []float64{50, 95, 99, 100} {
				if got, want := lat.Percentile(p), rep.hist.Percentile(p); got != want {
					t.Errorf("read latency hist p%g = %v, report's %v", p, got, want)
				}
			}
			if len(snap.Slow) != 16 {
				t.Fatalf("slow trace retained %d records, want 16", len(snap.Slow))
			}
			for i, r := range snap.Slow {
				if r.TotalUS <= 0 || r.TotalUS < r.SenseUS {
					t.Fatalf("slow[%d] inconsistent: %+v", i, r)
				}
				if i > 0 && r.TotalUS > snap.Slow[i-1].TotalUS {
					t.Fatalf("slow trace not sorted slowest-first at %d", i)
				}
			}
			// The per-shard throughput gauges are set — and stripped from
			// the deterministic view.
			if len(snap.Gauges) != 4 {
				t.Fatalf("%d gauges set, want one per shard", len(snap.Gauges))
			}
			if det := snap.Deterministic(); len(det.Gauges) != 0 {
				t.Fatal("Deterministic left gauges in place")
			}
		})
	}
}

// TestEngineMetricsWorkerDeterminism: the deterministic rendering of
// the registry — counters, merged histograms, slow-read trace — must be
// byte-identical at every worker count and chunk size, like the report.
func TestEngineMetricsWorkerDeterminism(t *testing.T) {
	cfg := engineConfig()
	reqs := engineTrace(t, 20000)

	render := func(workers, chunk int) (string, string, *Report) {
		reg := obs.NewRegistry(4)
		reg.KeepSlowest(8)
		eng, err := NewEngine(ReplayConfig{
			Sim: cfg, Shards: 4, ChunkRequests: chunk,
			Precondition: true, Metrics: reg,
		}, benchSampler())
		if err != nil {
			t.Fatal(err)
		}
		prev := parallel.SetWorkers(workers)
		rep, err := eng.Replay(trace.SliceOpener(reqs))
		parallel.SetWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot().Deterministic()
		prom := promText(snap)
		var slow strings.Builder
		if err := snap.WriteSlowJSONL(&slow); err != nil {
			t.Fatal(err)
		}
		return prom, slow.String(), rep
	}

	baseProm, baseSlow, baseRep := render(1, 0)
	if !strings.Contains(baseProm, "sentinel3d_ssdsim_read_requests") {
		t.Fatalf("rendering lacks read counter:\n%s", baseProm)
	}
	for _, run := range []struct{ workers, chunk int }{{4, 0}, {8, 0}, {4, 7}} {
		prom, slow, rep := render(run.workers, run.chunk)
		if prom != baseProm {
			t.Fatalf("workers=%d chunk=%d: prometheus text diverged", run.workers, run.chunk)
		}
		if slow != baseSlow {
			t.Fatalf("workers=%d chunk=%d: slow trace diverged", run.workers, run.chunk)
		}
		if !reflect.DeepEqual(rep, baseRep) {
			t.Fatalf("workers=%d chunk=%d: report diverged with metrics on", run.workers, run.chunk)
		}
	}
}

// TestEngineReorderedArrivals: an out-of-order MSR trace streams
// through the engine with arrivals clamped, and the clamp count lands
// in both the report and the metrics.
func TestEngineReorderedArrivals(t *testing.T) {
	// Records 2 and 4 run backwards in time.
	csv := "128166372003061629,hm,0,Read,8192,8192,100\n" +
		"128166372002061629,hm,0,Write,40960,4096,100\n" +
		"128166372013061629,hm,0,Read,4096,16384,100\n" +
		"128166372012061629,hm,0,Read,8192,4096,100\n"
	path := filepath.Join(t.TempDir(), "ooo.csv")
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := engineConfig()
	reg := obs.NewRegistry(2)
	eng, err := NewEngine(ReplayConfig{
		Sim: cfg, Shards: 2, Precondition: true, Metrics: reg,
	}, benchSampler())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Replay(trace.FileOpener(path))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReorderedArrivals != 2 {
		t.Fatalf("ReorderedArrivals = %d, want 2", rep.ReorderedArrivals)
	}
	if got := counterValue(t, reg, "ssdsim.reordered_arrivals"); got != 2 {
		t.Fatalf("reordered counter = %d, want 2", got)
	}

	// An in-order trace reports zero.
	reqs := engineTrace(t, 1000)
	eng2, err := NewEngine(ReplayConfig{Sim: cfg, Shards: 2, Precondition: true},
		benchSampler())
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := eng2.Replay(trace.SliceOpener(reqs))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.ReorderedArrivals != 0 {
		t.Fatalf("in-order trace reports %d reordered arrivals", rep2.ReorderedArrivals)
	}
}

// TestEngineMetricsShardMismatch: a registry narrower than the shard
// fan-out is a wiring bug and must be rejected up front.
func TestEngineMetricsShardMismatch(t *testing.T) {
	cfg := engineConfig()
	if _, err := NewEngine(ReplayConfig{
		Sim: cfg, Shards: 4, Metrics: obs.NewRegistry(2),
	}, benchSampler()); err == nil {
		t.Fatal("accepted 2-shard registry for 4-shard engine")
	}
}

// TestSimRunWithMetrics: the unsharded Sim path accepts a Set directly
// through its config.
func TestSimRunWithMetrics(t *testing.T) {
	cfg := engineConfig()
	reg := obs.NewRegistry(1)
	cfg.Obs = reg.Set(0)
	reqs := engineTrace(t, 5000)
	sim, err := newSim(cfg, benchSampler())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.precondition(reqs); err != nil {
		t.Fatal(err)
	}
	rep, err := sim.run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, reg, "ssdsim.read_requests"); got != int64(rep.Reads) {
		t.Fatalf("read counter %d, want %d", got, rep.Reads)
	}
	if got := counterValue(t, reg, "ftl.host_writes"); got == 0 {
		t.Fatal("FTL host writes not published")
	}
}

// TestSlowReadsCarryDrawnOutcome: every slow-read record describes one
// drawn outcome throughout. The replay prices a read from its draw-table
// record and reaches the outcome's Offsets through the record's pool
// index, so each outcome here encodes its own (pool, retries, aux,
// flags) in Offsets, and every record must agree with them, with its
// page's type and with pageCost — frozen and with lifetime aging, which
// draws from every pool of the grid.
func TestSlowReadsCarryDrawnOutcome(t *testing.T) {
	tag := func(ls *LifetimeSampler) *LifetimeSampler {
		for pi, pool := range ls.Pools {
			for pt, outs := range pool.PerPage {
				for i := range outs {
					o := &outs[i]
					o.UsedFallback, o.Uncorrectable = i%5 == 1, i%7 == 2
					o.Offsets = []float64{float64(pi), float64(pt), float64(o.Retries), float64(o.AuxSenses),
						float64(i % 5), float64(i % 7)}
				}
			}
		}
		return ls
	}
	aging := engineConfig()
	aging.Life = lifeConfig()
	reqs := engineTrace(t, 20000)
	for _, c := range []struct {
		name string
		cfg  Config
		ls   *LifetimeSampler
	}{
		{"frozen", engineConfig(), tag(SyntheticLifetimeSampler(3, []int{0}, []float64{0}, 3))},
		{"lifetime", aging, tag(lifeSampler())},
	} {
		reg := obs.NewRegistry(1)
		reg.KeepSlowest(1 << 14) // most of the trace's page reads, so every pool shows
		eng, err := NewEngine(ReplayConfig{Sim: c.cfg, Precondition: true, Metrics: reg}, c.ls)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Replay(trace.SliceOpener(reqs)); err != nil {
			t.Fatal(err)
		}
		slow := reg.Snapshot().Slow
		pools := map[float64]bool{}
		for _, r := range slow {
			o := r.VoltageOffsets
			if len(o) != 6 {
				t.Fatalf("%s: slow read %+v carries no tagged offsets", c.name, r)
			}
			pt := int(o[1])
			out := RetryOutcome{Retries: r.Retries, AuxSenses: r.AuxSenses}
			die, ch := pageCost(pt, &out)
			if pt != r.Page%c.cfg.Bits || float64(r.Retries) != o[2] || float64(r.AuxSenses) != o[3] ||
				r.Fallback != (o[4] == 1) || r.Uncorrectable != (o[5] == 2) ||
				r.SenseUS != die || r.XferUS != ch {
				t.Fatalf("%s: slow read %+v disagrees with the outcome its offsets name", c.name, r)
			}
			pools[o[0]] = true
		}
		if len(slow) < 64 || (c.cfg.Life != nil && len(pools) < 2) {
			t.Fatalf("%s: degenerate trace: %d slow reads from %d pools", c.name, len(slow), len(pools))
		}
	}
}

// promText is the snapshot's Prometheus text.
func promText(s *obs.Snapshot) string {
	var b strings.Builder
	_ = s.WritePrometheus(&b) // strings.Builder writes cannot fail
	return b.String()
}

package ssdsim

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"sentinel3d/internal/fault"
	"sentinel3d/internal/ftl"
	"sentinel3d/internal/obs"
	"sentinel3d/internal/parallel"
	"sentinel3d/internal/trace"
)

// engineGeometry is a 4-channel device so the engine tests can shard
// 1/2/4 ways while staying small enough to replay in milliseconds.
func engineGeometry() ftl.Geometry {
	return ftl.Geometry{
		Channels: 4, ChipsPerChan: 1, DiesPerChip: 1, PlanesPerDie: 2,
		BlocksPerPlane: 32, PagesPerBlock: 96,
	}
}

func engineConfig() Config {
	cfg := DefaultConfig()
	cfg.Geo = engineGeometry()
	cfg.Seed = 11
	return cfg
}

// engineTrace returns a mixed read/write trace that fits the test
// geometry (with room for every shard's partition).
func engineTrace(t testing.TB, n int) []trace.Request {
	t.Helper()
	spec, err := trace.WorkloadByName("hm_0")
	if err != nil {
		t.Fatal(err)
	}
	spec.WorkingSetPages = 8000
	reqs, err := trace.Generate(spec, n, 42)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// TestEngineGoldenSingleShard: a 1-shard engine with CollectLatencies
// must reproduce the sequential reference (precondition + run on a
// plain Sim) field for field, including the exact latency vector and
// percentiles. The saturated burst (every request at t=0) makes the
// makespan pure service capacity, so the DeepEqual also pins MakespanUS
// against the reference makespan.
func TestEngineGoldenSingleShard(t *testing.T) {
	cfg := engineConfig()
	paced := engineTrace(t, 5000)
	burst := slices.Clone(paced)
	for i := range burst {
		burst[i].ArriveUS = 0
	}
	for _, in := range []struct {
		name string
		reqs []trace.Request
	}{{"paced", paced}, {"burst", burst}} {
		sim, err := newSim(cfg, benchSampler())
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.precondition(in.reqs); err != nil {
			t.Fatal(err)
		}
		want, err := sim.run(in.reqs)
		if err != nil {
			t.Fatal(err)
		}
		if want.MakespanUS != sim.makespan() || want.MakespanUS <= 0 {
			t.Fatalf("%s: report makespan %v, reference %v", in.name, want.MakespanUS, sim.makespan())
		}

		eng, err := NewEngine(ReplayConfig{
			Sim: cfg, Shards: 1, CollectLatencies: true, Precondition: true,
		}, benchSampler())
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Replay(trace.SliceOpener(in.reqs))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: single-shard engine diverged from the reference:\n got %+v\nwant %+v",
				in.name, got, want)
		}
		if got.Reads == 0 || got.Writes == 0 {
			t.Fatalf("%s: degenerate trace: %d reads, %d writes", in.name, got.Reads, got.Writes)
		}
	}
}

// TestEngineWorkerDeterminism: the merged report must be identical at
// every worker count and at any chunk size, in both latency modes.
func TestEngineWorkerDeterminism(t *testing.T) {
	cfg := engineConfig()
	reqs := engineTrace(t, 20000)

	for _, collect := range []bool{false, true} {
		var base *Report
		for _, run := range []struct {
			workers, chunk int
		}{
			{1, 0}, {4, 0}, {8, 0}, {4, 7}, // chunk 7 forces many partial chunks
		} {
			eng, err := NewEngine(ReplayConfig{
				Sim: cfg, Shards: 4, ChunkRequests: run.chunk,
				CollectLatencies: collect, Precondition: true,
			}, benchSampler())
			if err != nil {
				t.Fatal(err)
			}
			prev := parallel.SetWorkers(run.workers)
			rep, err := eng.Replay(trace.SliceOpener(reqs))
			parallel.SetWorkers(prev)
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base = rep
				continue
			}
			if !reflect.DeepEqual(rep, base) {
				t.Fatalf("collect=%v workers=%d chunk=%d: report diverged:\n got %+v\nwant %+v",
					collect, run.workers, run.chunk, rep, base)
			}
		}
		if base.Requests != len(reqs) {
			t.Fatalf("collect=%v: %d requests serviced, want %d", collect, base.Requests, len(reqs))
		}
	}
}

// TestEngineMillionRequestDeterminism is the scale acceptance check: a
// 1M-request streamed trace over the fully-sharded 8-channel device,
// replayed with metrics enabled, must produce byte-identical reports
// and metric renderings at every worker count, without ever
// materializing the trace. Skipped under -short.
func TestEngineMillionRequestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 1M requests four times")
	}
	cfg := DefaultConfig()
	cfg.Geo = benchGeometry()
	spec := benchSpec(cfg.Geo)
	const n = 1_000_000
	var base *Report
	var baseProm string
	for _, w := range []int{1, 2, 4, 8} {
		reg := obs.NewRegistry(8)
		reg.KeepSlowest(32)
		eng, err := NewEngine(ReplayConfig{
			Sim: cfg, Shards: 8, Precondition: true, Metrics: reg,
		}, benchSampler())
		if err != nil {
			t.Fatal(err)
		}
		prev := parallel.SetWorkers(w)
		rep, err := eng.Replay(trace.GeneratorOpener(spec, n, 7))
		parallel.SetWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		prom := promText(reg.Snapshot().Deterministic())
		if base == nil {
			base, baseProm = rep, prom
			if rep.Requests != n {
				t.Fatalf("%d requests serviced, want %d", rep.Requests, n)
			}
			continue
		}
		if !reflect.DeepEqual(rep, base) {
			t.Fatalf("report diverged at %d workers:\n got %+v\nwant %+v", w, rep, base)
		}
		if prom != baseProm {
			t.Fatalf("metric rendering diverged at %d workers", w)
		}
	}
}

// TestEngineHistogramMode: the default (histogram) mode must keep the
// mean essentially exact, land p95/p99 within one bucket width of the
// nearest-rank order statistic, and hold no per-request state.
func TestEngineHistogramMode(t *testing.T) {
	cfg := engineConfig()
	reqs := engineTrace(t, 20000)
	run := func(collect bool) *Report {
		eng, err := NewEngine(ReplayConfig{
			Sim: cfg, Shards: 2, CollectLatencies: collect, Precondition: true,
		}, benchSampler())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Replay(trace.SliceOpener(reqs))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	exact, hist := run(true), run(false)

	if hist.ReadLatencies != nil {
		t.Fatalf("histogram mode retained %d latencies", len(hist.ReadLatencies))
	}
	if len(exact.ReadLatencies) != exact.Reads || hist.Reads != exact.Reads ||
		hist.Requests != exact.Requests || hist.Writes != exact.Writes {
		t.Fatalf("count mismatch: hist %+v vs exact %+v", hist, exact)
	}
	if relDiff(hist.MeanReadUS, exact.MeanReadUS) > 1e-9 {
		t.Fatalf("mean %v, want %v", hist.MeanReadUS, exact.MeanReadUS)
	}
	if hist.MeanWriteUS != exact.MeanWriteUS {
		t.Fatalf("write mean %v, want %v", hist.MeanWriteUS, exact.MeanWriteUS)
	}
	// Histogram quantiles: within [stat, stat*WidthFactor] of the
	// nearest-rank order statistic.
	sorted := slices.Clone(exact.ReadLatencies)
	slices.Sort(sorted)
	wf := hist.hist.WidthFactor()
	for _, c := range []struct {
		p    float64
		got  float64
		name string
	}{{95, hist.P95ReadUS, "p95"}, {99, hist.P99ReadUS, "p99"}} {
		rank := int(math.Ceil(c.p / 100 * float64(len(sorted))))
		stat := sorted[rank-1]
		if c.got < stat || c.got > stat*wf {
			t.Errorf("%s = %v outside [%v, %v]", c.name, c.got, stat, stat*wf)
		}
	}
}

// TestEngineStreamedSources: replaying from a streaming generator or an
// MSR file must match replaying the materialized slice of the same
// trace — the opener is consulted twice (precondition + replay) and the
// engine closes file-backed sources.
func TestEngineStreamedSources(t *testing.T) {
	cfg := engineConfig()
	newEngine := func() *Engine {
		eng, err := NewEngine(ReplayConfig{
			Sim: cfg, Shards: 2, CollectLatencies: true, Precondition: true,
		}, benchSampler())
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	spec, err := trace.WorkloadByName("hm_0")
	if err != nil {
		t.Fatal(err)
	}
	spec.WorkingSetPages = 8000
	reqs, err := trace.Generate(spec, 5000, 42)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newEngine().Replay(trace.SliceOpener(reqs))
	if err != nil {
		t.Fatal(err)
	}
	got, err := newEngine().Replay(trace.GeneratorOpener(spec, 5000, 42))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("generator stream diverged from slice:\n got %+v\nwant %+v", got, want)
	}
	gen, err := trace.NewGenerator(spec, 5000, 42)
	if err != nil {
		t.Fatal(err)
	}
	got, err = newEngine().Replay(binaryOpener(t, gen))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("S3DT-encoded generator diverged from slice:\n got %+v\nwant %+v", got, want)
	}

	// MSR file with monotone timestamps, so file order == sorted order.
	csv := "128166372003061629,hm,0,Read,8192,8192,100\n" +
		"128166372003061639,hm,0,Write,40960,4096,100\n" +
		"128166372003061659,hm,0,Read,4096,16384,100\n" +
		"128166372003061679,hm,0,Read,8192,4096,100\n"
	path := filepath.Join(t.TempDir(), "hm.csv")
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := trace.OpenMSR(path)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := trace.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	want, err = newEngine().Replay(trace.SliceOpener(parsed))
	if err != nil {
		t.Fatal(err)
	}
	got, err = newEngine().Replay(trace.FileOpener(path))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MSR stream diverged from slice:\n got %+v\nwant %+v", got, want)
	}
	msr, err := trace.OpenMSR(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err = newEngine().Replay(binaryOpener(t, msr))
	if err != nil {
		t.Fatal(err)
	}
	if err := msr.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("S3DT-encoded MSR trace diverged from slice:\n got %+v\nwant %+v", got, want)
	}
}

// TestEngineBinaryLargeLPNs: a trace whose LPNs lie past 2^33, up to
// the S3DT record's 2^40-1, replays through its S3DT encoding exactly
// as through the slice, on 1 and 2 devices. Every device's share of
// those LPNs is past 2^32-1, so the writes reach the FTL's reverse-map
// spill map, whose invariants hold after the replay.
func TestEngineBinaryLargeLPNs(t *testing.T) {
	bases := []int64{1<<33 + 5, 1<<36 - 3, 1<<40 - 600}
	var reqs []trace.Request
	for i := 0; i < 900; i++ {
		op := trace.Read
		if i%3 == 0 {
			op = trace.Write
		}
		reqs = append(reqs, trace.Request{
			ArriveUS: float64(i) * 40, Op: op,
			LPN: bases[i%len(bases)] + int64(i*7%500), Pages: 1 + i%4,
		})
	}
	for _, devices := range []int{1, 2} {
		newEngine := func() *Engine {
			eng, err := NewEngine(ReplayConfig{
				Sim: engineConfig(), Shards: 2, Devices: devices,
				CollectLatencies: true, Precondition: true,
			}, benchSampler())
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}
		want, err := newEngine().Replay(trace.SliceOpener(reqs))
		if err != nil {
			t.Fatal(err)
		}
		got, sims, err := newEngine().replay(binaryOpener(t, trace.Sliced(reqs)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("devices=%d: S3DT replay diverged from slice:\n got %+v\nwant %+v", devices, got, want)
		}
		if got.Reads == 0 || got.Writes == 0 || got.UnmappedReads != 0 {
			t.Fatalf("devices=%d: replayed %d reads (%d unmapped), %d writes",
				devices, got.Reads, got.UnmappedReads, got.Writes)
		}
		for i, sim := range sims {
			if err := sim.ftl.CheckInvariants(); err != nil {
				t.Fatalf("devices=%d target %d: %v", devices, i, err)
			}
		}
	}
}

// binaryOpener encodes src as S3DT and returns an opener over the
// buffer.
func binaryOpener(t *testing.T, src trace.Source) trace.Opener {
	t.Helper()
	data, err := trace.EncodeBinarySource(src)
	if err != nil {
		t.Fatal(err)
	}
	open, err := trace.BinaryOpener(data)
	if err != nil {
		t.Fatal(err)
	}
	return open
}

// lpnBounded is the probe Engine.replay makes on a trace source for its
// LPN bound. A source that loses it still replays to the same report,
// but the FTLs lose their dense-mapping hint and the precondition pass
// its bitset dedup, and replay runs two to five times slower: no digest
// shows the loss.
type lpnBounded interface{ MaxLPN() int64 }

var (
	_ lpnBounded = (*trace.Generator)(nil)
	_ lpnBounded = (*trace.BinarySource)(nil)
)

// boundProbe forwards a source's requests and counts the engine's
// MaxLPN probes.
type boundProbe struct {
	trace.Source
	bound  int64
	probes *int
}

func (p boundProbe) MaxLPN() int64 {
	*p.probes++
	return p.bound
}

// TestEngineProbesLPNBound: the sources that generator and S3DT
// openers return carry MaxLPN, and a replay asks its source for it.
func TestEngineProbesLPNBound(t *testing.T) {
	spec, err := trace.WorkloadByName("hm_0")
	if err != nil {
		t.Fatal(err)
	}
	spec.WorkingSetPages = 8000
	gen, err := trace.NewGenerator(spec, 2000, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		open trace.Opener
	}{
		{"generator", trace.GeneratorOpener(spec, 2000, 42)},
		{"S3DT", binaryOpener(t, gen)},
	} {
		probes := 0
		probed := func() (trace.Source, error) {
			src, err := c.open()
			if err != nil {
				return nil, err
			}
			b, ok := src.(lpnBounded)
			if !ok {
				t.Fatalf("%s: %T does not carry MaxLPN", c.name, src)
			}
			return boundProbe{Source: src, bound: b.MaxLPN(), probes: &probes}, nil
		}
		eng, err := NewEngine(ReplayConfig{Sim: engineConfig(), Shards: 2, Precondition: true}, benchSampler())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Replay(probed); err != nil {
			t.Fatal(err)
		}
		if probes == 0 {
			t.Errorf("%s: the engine never asked its source for MaxLPN", c.name)
		}
	}
}

// TestEngineErrors: configuration and trace failures surface as errors.
func TestEngineErrors(t *testing.T) {
	cfg := engineConfig()
	if _, err := NewEngine(ReplayConfig{Sim: cfg, Shards: 3}, benchSampler()); err == nil {
		t.Error("accepted 3 shards over 4 channels")
	}
	if _, err := NewEngine(ReplayConfig{Sim: cfg, Shards: -2}, benchSampler()); err == nil {
		t.Error("accepted negative shard count")
	}
	if _, err := NewEngine(ReplayConfig{Sim: cfg, ChunkRequests: -1}, benchSampler()); err == nil {
		t.Error("accepted negative chunk size")
	}
	if _, err := NewEngine(ReplayConfig{Sim: cfg}, nil); err == nil {
		t.Error("accepted nil sampler")
	}

	eng, err := NewEngine(ReplayConfig{Sim: cfg, Shards: 2, Precondition: true}, benchSampler())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Replay(nil); err == nil {
		t.Error("accepted nil opener")
	}
	path := filepath.Join(t.TempDir(), "bad.csv")
	bad := "128166372003061629,hm,0,Read,8192,8192,100\nnot,a,valid,line,x,y\n"
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Replay(trace.FileOpener(path)); err == nil {
		t.Error("bad MSR line did not fail the replay")
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d / m
}

// cancelAfterSource cancels a context after emitting a fixed number of
// requests — a deterministic stand-in for SIGINT arriving mid-stream.
type cancelAfterSource struct {
	src    trace.Source
	cancel context.CancelFunc
	after  int
	n      int
}

func (c *cancelAfterSource) Next() (trace.Request, bool, error) {
	if c.n == c.after {
		c.cancel()
	}
	c.n++
	return c.src.Next()
}

// TestEngineReplayCanceled: cancellation stops the replay at a chunk
// boundary and Replay still returns the merged partial report alongside
// the context error — the CLI interrupt path depends on both halves.
func TestEngineReplayCanceled(t *testing.T) {
	cfg := engineConfig()
	reqs := engineTrace(t, 2000)

	// Pre-canceled: nothing is serviced, but the (empty) report is
	// still merged and returned with the error.
	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	eng, err := NewEngine(ReplayConfig{Sim: cfg, Shards: 2, Ctx: pre}, benchSampler())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Replay(trace.SliceOpener(reqs))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled replay: err %v, want context.Canceled", err)
	}
	if rep == nil || rep.Requests != 0 {
		t.Fatalf("pre-canceled replay report: %+v", rep)
	}

	// Mid-stream: the source fires the cancel after 200 requests. Every
	// chunk replayed before the cancel is complete (so the serviced
	// count is a multiple of the chunk size) and chunks demuxed after it
	// never run.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng2, err := NewEngine(ReplayConfig{
		Sim: cfg, Shards: 2, ChunkRequests: 64, Ctx: ctx,
	}, benchSampler())
	if err != nil {
		t.Fatal(err)
	}
	open := func() (trace.Source, error) {
		return &cancelAfterSource{src: trace.Sliced(reqs), cancel: cancel, after: 200}, nil
	}
	rep2, err := eng2.Replay(open)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-stream cancel: err %v, want context.Canceled", err)
	}
	if rep2 == nil || rep2.Requests >= len(reqs) {
		t.Fatalf("canceled replay serviced the whole trace: %+v", rep2)
	}
	if rep2.Requests%64 != 0 {
		t.Fatalf("partial report cut inside a chunk: %d requests", rep2.Requests)
	}

	// A canceled precondition pass aborts before any replay state exists.
	eng3, err := NewEngine(ReplayConfig{Sim: cfg, Precondition: true, Ctx: pre}, benchSampler())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng3.Replay(trace.SliceOpener(reqs)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled precondition: err %v", err)
	}
}

// TestEngineGeneratorBlocks: the generator's block pulls (span-only
// blocks in the precondition pass, request blocks cut at each chunk
// boundary in the replay pass) replay exactly as the materialized slice
// of the same trace. Chunks of 1000 and 4097 requests end inside a
// 512-request block and one past a 4096-request demux block; the fleets
// are a sharded device and striped and replicated pairs, at one worker
// (inline servicing) and four (queues and freelist).
func TestEngineGeneratorBlocks(t *testing.T) {
	spec, err := trace.WorkloadByName("hm_0")
	if err != nil {
		t.Fatal(err)
	}
	spec.WorkingSetPages = 8000
	const n = 12000
	reqs, err := trace.Generate(spec, n, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, fleet := range []struct {
		name            string
		shards, devices int
		replicate       bool
	}{{"shards2", 2, 1, false}, {"striped", 2, 2, false}, {"replicated", 1, 2, true}} {
		for _, chunk := range []int{1000, 4097} {
			for _, workers := range []int{1, 4} {
				prev := parallel.SetWorkers(workers)
				eng, err := NewEngine(ReplayConfig{
					Sim: engineConfig(), Shards: fleet.shards, Devices: fleet.devices,
					Replicate: fleet.replicate, ChunkRequests: chunk,
					CollectLatencies: true, Precondition: true,
				}, benchSampler())
				if err != nil {
					t.Fatal(err)
				}
				want, err := eng.Replay(trace.SliceOpener(reqs))
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.Replay(trace.GeneratorOpener(spec, n, 42))
				parallel.SetWorkers(prev)
				if err != nil {
					t.Fatal(err)
				}
				if want.Requests < n {
					t.Fatalf("%s: slice replay serviced %d of %d requests", fleet.name, want.Requests, n)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, chunk %d, %d workers: generator replay diverged from slice:\n got %+v\nwant %+v",
						fleet.name, chunk, workers, got, want)
				}
			}
		}
	}
}

// armedCtx reports Canceled from the at-th Err call after it is armed.
type armedCtx struct {
	context.Context
	armed     bool
	calls, at int
}

func (c *armedCtx) Err() error {
	if !c.armed {
		return nil
	}
	if c.calls++; c.calls >= c.at {
		return context.Canceled
	}
	return nil
}

// TestEngineGeneratorCancelMatchesSlice: a replay canceled mid-run
// returns the same partial report from the generator's blocks as from
// the slice source. The context is armed when the replay pass opens
// its source, so only the replay pass's once-per-chunk checks count,
// and cancels at the fourth: three whole chunks.
func TestEngineGeneratorCancelMatchesSlice(t *testing.T) {
	spec, err := trace.WorkloadByName("hm_0")
	if err != nil {
		t.Fatal(err)
	}
	spec.WorkingSetPages = 8000
	const n, chunk = 12000, 1000
	reqs, err := trace.Generate(spec, n, 42)
	if err != nil {
		t.Fatal(err)
	}
	var reps []*Report
	for _, src := range []trace.Opener{trace.SliceOpener(reqs), trace.GeneratorOpener(spec, n, 42)} {
		ctx := &armedCtx{Context: context.Background(), at: 4}
		eng, err := NewEngine(ReplayConfig{
			Sim: engineConfig(), Shards: 2, ChunkRequests: chunk,
			CollectLatencies: true, Precondition: true, Ctx: ctx,
		}, benchSampler())
		if err != nil {
			t.Fatal(err)
		}
		opens := 0
		rep, err := eng.Replay(func() (trace.Source, error) {
			opens++
			ctx.armed = opens == 2
			return src()
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err %v, want context.Canceled", err)
		}
		if rep == nil {
			t.Fatal("no partial report")
		}
		if rep.Requests != 3*chunk {
			t.Fatalf("partial report of %d requests, want %d", rep.Requests, 3*chunk)
		}
		reps = append(reps, rep)
	}
	if !reflect.DeepEqual(reps[1], reps[0]) {
		t.Fatalf("canceled generator replay diverged from slice:\n got %+v\nwant %+v", reps[1], reps[0])
	}
}

// TestEngineFTLInvariants: after a replay through the Engine, every
// target's FTL still holds the L2P↔P2L bijection and exact valid counts
// (ftl.(*FTL).CheckInvariants). This is the loud check behind
// WriteInto's unchecked invalidate of an overwritten page, run over every
// engine configuration that drives a different write path: frozen
// stress, lifetime aging (wear sink armed), program/erase faults (block
// retirement and rescue copies), two shards, and two-device fleets both
// striped and replicated.
func TestEngineFTLInvariants(t *testing.T) {
	// long fills ~half of each device's capacity with enough writes to
	// run garbage collection on every target, fleets included; the faulty
	// medium retires blocks as it goes, so it replays the shorter trace
	// that still collects garbage without running a plane out of space.
	spec, err := trace.WorkloadByName("hm_0")
	if err != nil {
		t.Fatal(err)
	}
	spec.WorkingSetPages = 12000
	long, err := trace.Generate(spec, 60000, 42)
	if err != nil {
		t.Fatal(err)
	}
	short := engineTrace(t, 20000)
	faulty := engineConfig()
	faulty.PEFaults = fault.MustNew(fault.Profile{
		Seed: 5, FTLProgramFailRate: 0.0005, FTLEraseFailRate: 0.002,
	})
	aging := engineConfig()
	aging.Life = lifeConfig()
	cases := []struct {
		name    string
		cfg     ReplayConfig
		sampler RetrySampler
		reqs    []trace.Request
	}{
		{"frozen", ReplayConfig{Sim: engineConfig()}, benchSampler(), long},
		{"lifetime", ReplayConfig{Sim: aging}, lifeSampler(), long},
		{"peFaults", ReplayConfig{Sim: faulty}, benchSampler(), short},
		{"shards2", ReplayConfig{Sim: engineConfig(), Shards: 2}, benchSampler(), long},
		{"striped2", ReplayConfig{Sim: engineConfig(), Devices: 2}, benchSampler(), long},
		{"replicated2", ReplayConfig{Sim: engineConfig(), Devices: 2, Replicate: true}, benchSampler(), long},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.Precondition = true
			eng, err := NewEngine(c.cfg, c.sampler)
			if err != nil {
				t.Fatal(err)
			}
			rep, sims, err := eng.replay(trace.SliceOpener(c.reqs))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Writes == 0 || rep.GCWrites == 0 {
				t.Fatalf("degenerate replay: %d writes, %d GC writes", rep.Writes, rep.GCWrites)
			}
			if c.cfg.Sim.PEFaults != nil && rep.RetiredBlocks == 0 {
				t.Fatal("degenerate replay: the faulty medium retired no blocks")
			}
			if want := max(c.cfg.Devices, 1) * max(c.cfg.Shards, 1); len(sims) != want {
				t.Fatalf("%d targets, want %d", len(sims), want)
			}
			for i, sim := range sims {
				if err := sim.ftl.CheckInvariants(); err != nil {
					t.Fatalf("target %d: %v", i, err)
				}
			}
		})
	}
}

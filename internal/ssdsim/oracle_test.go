package ssdsim

import (
	"context"
	"testing"

	"sentinel3d/internal/ftl"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/obs"
	"sentinel3d/internal/parallel"
	"sentinel3d/internal/trace"
)

// TestFleetMatchesReplay is the serving-vs-replay differential oracle:
// a 1-shard Fleet and a Sim of the same geometry, both written ascending
// over [0, PremapPages), place every LPN on the same physical page. With
// one outcome per page type the draw cannot differ either, so a read
// replayed on an idle device must cost exactly the fleet's SimUS — both
// price the page through the same read-cost model, one with contention
// on top that an idle device never exercises.
func TestFleetMatchesReplay(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Geo = ftl.Geometry{Channels: 2, ChipsPerChan: 1, DiesPerChip: 2,
		PlanesPerDie: 2, BlocksPerPlane: 16, PagesPerBlock: 96}
	cfg.Seed = 5
	sampler := &EmpiricalSampler{PerPage: [][]RetryOutcome{
		{{Retries: 0}},
		{{Retries: 1, AuxSenses: 1}},
		{{Retries: 3, AuxSenses: 2, UsedFallback: true}},
	}}
	const premap = 2048
	fl, err := NewFleet(FleetConfig{
		Sim: cfg, Shards: 1, PremapPages: premap,
		Samplers: map[string]RetrySampler{"p": sampler},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	sim, err := newSim(cfg, sampler)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.precondition([]trace.Request{{Op: trace.Write, LPN: 0, Pages: premap}}); err != nil {
		t.Fatal(err)
	}

	// Mapped LPNs of every page type, plus a few never-written ones.
	rng := mathx.NewRand(9)
	var reqs []trace.Request
	for i := 0; i < 400; i++ {
		lpn := int64(rng.Intn(premap))
		if i%50 == 0 {
			lpn = premap + int64(i)
		}
		// Arrivals far enough apart that every read finds the device idle.
		reqs = append(reqs, trace.Request{ArriveUS: float64(i) * 1e4, Op: trace.Read, LPN: lpn, Pages: 1})
	}
	rep, err := sim.run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	var retries, aux int64
	for i, r := range reqs {
		res, err := fl.Submit(context.Background(), FleetRead{LPN: r.LPN, Pages: 1, Policy: "p"})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rep.ReadLatencies[i], res.SimUS; got != want {
			t.Fatalf("lpn %d: replay latency %v µs, fleet SimUS %v µs", r.LPN, got, want)
		}
		retries += int64(res.Retries)
		aux += int64(res.AuxSenses)
	}
	if rep.TotalRetries != retries || rep.AuxSenses != aux {
		t.Fatalf("replay drew %d retries / %d aux senses, fleet %d / %d",
			rep.TotalRetries, rep.AuxSenses, retries, aux)
	}
	if rep.UnmappedReads == 0 || rep.FlashReads == 0 || retries == 0 || aux == 0 {
		t.Fatalf("degenerate comparison: %+v", rep.Summary())
	}
}

// TestReportSenseCountsMatchMetrics: the report's flash-read and aux-sense
// totals (which stay outside ReportSummary) must agree with the obs
// registry's independent accounting at any worker count.
func TestReportSenseCountsMatchMetrics(t *testing.T) {
	cfg := engineConfig()
	reqs := engineTrace(t, 20000)
	for _, w := range []int{1, 4} {
		reg := obs.NewRegistry(4)
		eng, err := NewEngine(ReplayConfig{
			Sim: cfg, Shards: 4, Precondition: true, Metrics: reg,
		}, benchSampler())
		if err != nil {
			t.Fatal(err)
		}
		prev := parallel.SetWorkers(w)
		rep, err := eng.Replay(trace.SliceOpener(reqs))
		parallel.SetWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		if rep.FlashReads == 0 || rep.AuxSenses == 0 || rep.UnmappedReads != 0 {
			t.Fatalf("degenerate workload at %d workers: flash %d, aux %d, unmapped %d",
				w, rep.FlashReads, rep.AuxSenses, rep.UnmappedReads)
		}
		if got := counterValue(t, reg, "ssdsim.aux_senses"); got != rep.AuxSenses {
			t.Errorf("%d workers: ssdsim.aux_senses = %d, report says %d", w, got, rep.AuxSenses)
		}
		// Every page read observes one queue wait; none is unmapped here.
		var waits int64 = -1
		for _, h := range reg.Snapshot().Hists {
			if h.Name == "ssdsim.queue_wait_us" {
				waits = h.Hist.Count()
			}
		}
		if waits != rep.FlashReads {
			t.Errorf("%d workers: ssdsim.queue_wait_us count = %d, report FlashReads %d",
				w, waits, rep.FlashReads)
		}
	}
}

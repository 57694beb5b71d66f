package ssdsim

import (
	"testing"

	"sentinel3d/internal/mathx"
	"sentinel3d/internal/trace"
)

// TestChannelContention: two simultaneous reads on different dies of the
// same channel sense in parallel but serialize their transfers.
func TestChannelContention(t *testing.T) {
	cfg := testSSDConfig()
	s, err := newSim(cfg, fixedSampler(RetryOutcome{}))
	if err != nil {
		t.Fatal(err)
	}
	// Map two LPNs; with round-robin plane striping, consecutive writes
	// land on consecutive planes (same channel spans several planes).
	warm := []trace.Request{
		{Op: trace.Read, LPN: 0, Pages: 1},
		{Op: trace.Read, LPN: 1, Pages: 1},
	}
	if err := s.precondition(warm); err != nil {
		t.Fatal(err)
	}
	ppn0, _ := s.ftl.Translate(0)
	ppn1, _ := s.ftl.Translate(1)
	sameChan := cfg.Geo.Channel(ppn0.Plane) == cfg.Geo.Channel(ppn1.Plane)
	sameDie := cfg.Geo.Die(ppn0.Plane) == cfg.Geo.Die(ppn1.Plane)
	if !sameChan || sameDie {
		t.Skipf("striping did not produce same-channel/different-die pair")
	}
	reqs := []trace.Request{
		{ArriveUS: 0, Op: trace.Read, LPN: 0, Pages: 1},
		{ArriveUS: 0, Op: trace.Read, LPN: 1, Pages: 1},
	}
	rep, err := s.run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	solo := rep.ReadLatencies[0]
	second := rep.ReadLatencies[1]
	// The second read senses in parallel (different die) but its
	// transfer queues behind the first: latency above solo but below
	// full serialization.
	if second <= solo {
		t.Fatalf("no transfer contention: %v then %v", solo, second)
	}
	if second >= 2*solo {
		t.Fatalf("parallel dies fully serialized: %v then %v", solo, second)
	}
}

// TestGCWorkShowsUpInWriteLatency: a working set that forces garbage
// collection must slow writes down relative to a fresh device.
func TestGCWorkShowsUpInWriteLatency(t *testing.T) {
	cfg := testSSDConfig()
	mkReqs := func(ws int64, n int) []trace.Request {
		// Random overwrites (not a repeated permutation) so GC victims
		// hold valid data.
		r := mathx.NewRand(5)
		out := make([]trace.Request, n)
		for i := range out {
			out[i] = trace.Request{
				ArriveUS: float64(i) * 2000,
				Op:       trace.Write,
				LPN:      int64(r.Intn(int(ws))),
				Pages:    1,
			}
		}
		return out
	}
	run := func(ws int64, n int) float64 {
		s, err := newSim(cfg, fixedSampler(RetryOutcome{}))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.run(mkReqs(ws, n))
		if err != nil {
			t.Fatal(err)
		}
		if n > cfg.Geo.PagesTotal() && rep.GCWrites == 0 {
			t.Fatal("expected GC under overwrite pressure")
		}
		return rep.MeanWriteUS
	}
	light := run(int64(cfg.Geo.PagesTotal()), cfg.Geo.PagesTotal()/2)
	heavy := run(int64(cfg.Geo.PagesTotal())/2, cfg.Geo.PagesTotal()*3)
	if heavy <= light {
		t.Fatalf("GC-pressured writes (%v) not slower than light writes (%v)",
			heavy, light)
	}
}

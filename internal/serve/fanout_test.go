package serve

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sentinel3d/internal/ftl"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/ssdsim"
)

// TestFanoutMatchesSequential: a batch fanned out by shard gives the
// same ReadResults, in request order, as one Submit per read, on a
// 16-shard fleet (more shards than batchFanout) with batches that mix
// shards and repeat LPNs. It also bounds the goroutines that service a
// batch, the handler's own among them, at min(distinct shards,
// batchFanout), and checks that a deadline stamp already past rejects
// every read of the batch.
func TestFanoutMatchesSequential(t *testing.T) {
	cfg := testConfig()
	cfg.Fleet.Sim.Geo = ftl.Geometry{Channels: 16, ChipsPerChan: 1, DiesPerChip: 2,
		PlanesPerDie: 2, BlocksPerPlane: 8, PagesPerBlock: 192}
	cfg.Fleet.Shards = 16
	cfg.Fleet.PremapPages = 8192
	// The stall hook runs inside every serviced read, on the goroutine
	// that services it; it collects the IDs of those goroutines.
	var mu sync.Mutex
	servicers := make(map[string]bool)
	goid := func() string {
		buf := make([]byte, 64)
		id, _, _ := strings.Cut(string(buf[:runtime.Stack(buf, false)]), " [")
		return id
	}
	cfg.Fleet.Stall = func(int) time.Duration {
		id := goid()
		mu.Lock()
		servicers[id] = true
		mu.Unlock()
		return 0
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	rng := mathx.NewRand(7)
	for b := 0; b < 200; b++ {
		reads := make([]ssdsim.FleetRead, 2+rng.Intn(40))
		for i := range reads {
			if i > 0 && rng.Intn(4) == 0 {
				reads[i] = reads[rng.Intn(i)] // a repeated read
				continue
			}
			reads[i] = ssdsim.FleetRead{LPN: int64(rng.Intn(int(cfg.Fleet.PremapPages))), Pages: 1 + rng.Intn(3)}
		}
		policy := [...]string{"sentinel", "table"}[b%2]
		maxRetries := b % 3 / 2
		deadline := time.Now().Add(time.Hour)

		distinct := make(map[int]bool)
		for _, rd := range reads {
			distinct[s.fleet.ShardOf(rd.LPN)] = true
		}
		clear(servicers)
		got, agg := s.fanout(ctx, deadline, reads, policy, maxRetries)
		if n, limit := len(servicers), min(len(distinct), batchFanout); n > limit || !servicers[goid()] {
			t.Fatalf("batch %d: %d goroutines serviced %d shards (handler's own among them: %v), want at most %d",
				b, n, len(distinct), servicers[goid()], limit)
		}
		if agg.deadline || agg.queueFull || agg.stopped {
			t.Fatalf("batch %d: flags %+v", b, agg)
		}
		for i, rd := range reads {
			want := s.one(ctx, rd, deadline, policy, maxRetries)
			got[i].QueueWaitUS, want.QueueWaitUS = 0, 0 // wall-clock
			if got[i] != want {
				t.Fatalf("batch %d read %d (LPN %d): fanned out %+v, alone %+v", b, i, rd.LPN, got[i], want)
			}
		}
	}

	reads := []ssdsim.FleetRead{{LPN: 0}, {LPN: 64}, {LPN: 128}, {LPN: 0}}
	got, agg := s.fanout(ctx, time.Now().Add(-time.Millisecond), reads, "sentinel", 0)
	if !agg.deadline {
		t.Fatal("past deadline stamp: batch not flagged deadline")
	}
	for i := range got {
		if got[i].Error != "deadline" {
			t.Fatalf("past deadline stamp: read %d got %+v", i, got[i])
		}
	}
}

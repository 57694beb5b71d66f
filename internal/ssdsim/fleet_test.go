package ssdsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sentinel3d/internal/fault"
	"sentinel3d/internal/ftl"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/obs"
)

// fleetTestConfig is a small 2-shard fleet with a slow/fast sampler pair.
func fleetTestConfig() FleetConfig {
	sim := DefaultConfig()
	sim.Geo = ftl.Geometry{Channels: 4, ChipsPerChan: 1, DiesPerChip: 2,
		PlanesPerDie: 2, BlocksPerPlane: 32, PagesPerBlock: 192}
	sim.Seed = 42
	return FleetConfig{
		Sim:         sim,
		Shards:      2,
		PremapPages: 4096,
		Samplers: map[string]RetrySampler{
			"sentinel": &EmpiricalSampler{PerPage: [][]RetryOutcome{
				{{Retries: 0}}, {{Retries: 0, AuxSenses: 1}}, {{Retries: 1, AuxSenses: 1}},
			}},
			"table": &EmpiricalSampler{PerPage: [][]RetryOutcome{
				{{Retries: 1}}, {{Retries: 2}}, {{Retries: 4}, {Retries: 6}},
			}},
		},
	}
}

// TestFleetRejectsLifetime: the fleet serves at the samplers' grid
// origin, so a lifetime config must fail construction rather than be
// silently ignored.
func TestFleetRejectsLifetime(t *testing.T) {
	cfg := fleetTestConfig()
	cfg.Sim.Life = &LifetimeConfig{BasePE: 1000}
	if fl, err := NewFleet(cfg); err == nil {
		fl.Close()
		t.Fatal("fleet accepted Sim.Life")
	}
}

// TestFleetRejectsPEFaults: the fleet's FTLs run fault-free, so a P/E
// fault model must fail construction rather than be silently ignored.
func TestFleetRejectsPEFaults(t *testing.T) {
	cfg := fleetTestConfig()
	cfg.Sim.PEFaults = fault.MustNew(fault.Profile{Seed: 5, FTLEraseFailRate: 0.002})
	if fl, err := NewFleet(cfg); err == nil {
		fl.Close()
		t.Fatal("fleet accepted Sim.PEFaults")
	}
}

func TestFleetDeterministicOutcomes(t *testing.T) {
	results := make([]map[int64]FleetResult, 2)
	for run := 0; run < 2; run++ {
		fl, err := NewFleet(fleetTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[int64]FleetResult)
		var mu sync.Mutex
		var wg sync.WaitGroup
		// Concurrent submitters in run-dependent order: outcomes must not
		// depend on arrival order.
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 64; i++ {
					lpn := int64((i*4 + (w+run)%4) * 17 % 4096)
					res, err := fl.Submit(context.Background(),
						FleetRead{LPN: lpn, Pages: 2, Policy: "sentinel"})
					if err != nil {
						t.Error(err)
						return
					}
					res.QueueWait = 0 // wall-clock, excluded from comparison
					mu.Lock()
					got[lpn] = res
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		fl.Close()
		results[run] = got
	}
	if len(results[0]) == 0 {
		t.Fatal("no results")
	}
	for lpn, a := range results[0] {
		if b, ok := results[1][lpn]; !ok || a != b {
			t.Fatalf("lpn %d: run 0 %+v, run 1 %+v", lpn, a, b)
		}
	}
}

// TestFleetMultiPageReadCrossesShards reads 9 pages from LPN 60 past
// each granule boundary of a 2-shard fleet: the pages past the boundary
// were premapped on the other shard and must be found there, so the read
// equals its pages read one at a time, summed in page order, and still
// reports the shard of its first LPN. Four submitters run at once, so
// under -race both workers translate on each other's FTLs concurrently.
func TestFleetMultiPageReadCrossesShards(t *testing.T) {
	cfg := fleetTestConfig()
	fl, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	const pages = 9
	granules := cfg.PremapPages/shardGranule - 1 // keep the last page premapped
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 16; i++ {
				lpn := int64(w*16+i)%granules*shardGranule + shardGranule - 4
				got, err := fl.Submit(ctx, FleetRead{LPN: lpn, Pages: pages, Policy: "table"})
				if err != nil {
					t.Error(err)
					return
				}
				got.QueueWait = 0
				want := FleetResult{Shard: int(lpn / shardGranule % 2)}
				for p := int64(0); p < pages; p++ {
					one, err := fl.Submit(ctx, FleetRead{LPN: lpn + p, Pages: 1, Policy: "table"})
					if err != nil {
						t.Error(err)
						return
					}
					want.SimUS += one.SimUS
					want.Retries += one.Retries
					want.AuxSenses += one.AuxSenses
					want.UsedFallback = want.UsedFallback || one.UsedFallback
					want.Uncorrectable = want.Uncorrectable || one.Uncorrectable
					want.UnmappedPages += one.UnmappedPages
					want.Check ^= one.Check
				}
				if got != want || got.UnmappedPages != 0 {
					t.Errorf("LPN %d, %d pages: read %+v, page by page %+v", lpn, pages, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestFleetPolicySelectsSampler(t *testing.T) {
	fl, err := NewFleet(fleetTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	sent, err := fl.Submit(context.Background(), FleetRead{LPN: 10, Policy: "sentinel"})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := fl.Submit(context.Background(), FleetRead{LPN: 10, Policy: "table"})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Retries <= sent.Retries && tab.SimUS <= sent.SimUS {
		t.Fatalf("table read (%+v) not slower than sentinel read (%+v)", tab, sent)
	}
	if _, err := fl.Submit(context.Background(), FleetRead{LPN: 10, Policy: "nope"}); !errors.Is(err, ErrUnknownPolicy) {
		t.Fatalf("unknown policy: got %v", err)
	}
}

func TestFleetFailFastCapsRetries(t *testing.T) {
	fl, err := NewFleet(fleetTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	// MSB pages of the table sampler need 4 or 6 retries; a budget of 1
	// must cut them off and fail the read fast.
	var sawFast bool
	for lpn := int64(0); lpn < 64; lpn++ {
		res, err := fl.Submit(context.Background(),
			FleetRead{LPN: lpn, Pages: 3, Policy: "table", MaxRetries: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Retries > 3 { // 3 pages x <=1 retry
			t.Fatalf("lpn %d: budget 1 but %d retries", lpn, res.Retries)
		}
		if res.FailFast {
			if !res.Uncorrectable {
				t.Fatalf("lpn %d: fail-fast read not marked uncorrectable", lpn)
			}
			sawFast = true
		}
	}
	if !sawFast {
		t.Fatal("no read hit the fail-fast cap")
	}
}

func TestFleetCorruptionRate(t *testing.T) {
	cfg := fleetTestConfig()
	cfg.CorruptRate = 1
	fl, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	res, err := fl.Submit(context.Background(), FleetRead{LPN: 3, Policy: "sentinel"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Uncorrectable {
		t.Fatal("corrupt rate 1 but read decoded")
	}
}

// stallGate is a Stall hook the tests open and close.
type stallGate struct {
	on      atomic.Bool
	release chan struct{}
}

func (g *stallGate) stall(int) time.Duration {
	if g.on.Load() {
		<-g.release
	}
	return 0
}

func TestFleetBackpressureAndDeadline(t *testing.T) {
	gate := &stallGate{release: make(chan struct{})}
	gate.on.Store(true)
	cfg := fleetTestConfig()
	cfg.Shards = 1
	cfg.QueueDepth = 4
	cfg.Stall = gate.stall
	fl, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// One request occupies the worker (blocked in the stall hook); fill
	// the queue behind it, then the next submission must bounce.
	var wg sync.WaitGroup
	errs := make([]error, cfg.QueueDepth+1)
	for i := 0; i <= cfg.QueueDepth; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			_, errs[i] = fl.Submit(ctx, FleetRead{LPN: int64(i), Policy: "sentinel"})
		}(i)
		// Serialize so occupancy is predictable: worker takes the first,
		// queue holds the rest.
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := fl.Submit(context.Background(), FleetRead{LPN: 99, Policy: "sentinel"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full queue: got %v", err)
	}
	if frac := fl.MaxQueueFrac(); frac < 0.9 {
		t.Fatalf("queue frac %g with a full queue", frac)
	}
	// Hold the gate until every queued request's 50ms deadline has
	// passed, then release: the worker must reject them on arrival, not
	// service them.
	time.Sleep(120 * time.Millisecond)
	gate.on.Store(false)
	close(gate.release)
	wg.Wait()
	var expired int
	for _, err := range errs {
		if errors.Is(err, context.DeadlineExceeded) {
			expired++
		}
	}
	if expired == 0 {
		t.Fatal("no queued request was rejected on arrival after its deadline")
	}

	fl.Close()
	if _, err := fl.Submit(context.Background(), FleetRead{LPN: 1, Policy: "sentinel"}); !errors.Is(err, ErrFleetStopped) {
		t.Fatalf("stopped fleet: got %v", err)
	}
}

func TestFleetCloseDrainsQueued(t *testing.T) {
	cfg := fleetTestConfig()
	cfg.Shards = 1
	fl, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var wg sync.WaitGroup
	var ok atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := fl.Submit(context.Background(),
				FleetRead{LPN: int64(i), Policy: "table"}); err == nil {
				ok.Add(1)
			}
		}(i)
	}
	wg.Wait() // every submission resolved before Close
	fl.Close()
	if ok.Load() != n {
		t.Fatalf("%d/%d in-flight reads serviced", ok.Load(), n)
	}
}

// TestFleetSubmitAllocs: a single-page read is serviced on the caller's
// goroutine with no reply channel or request record, so it allocates
// nothing, with and without metrics attached.
func TestFleetSubmitAllocs(t *testing.T) {
	for _, metrics := range []bool{false, true} {
		cfg := fleetTestConfig()
		if metrics {
			cfg.Metrics = obs.NewRegistry(cfg.Shards)
		}
		fl, err := NewFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		read := FleetRead{LPN: 10, Pages: 1, Policy: "sentinel"}
		n := testing.AllocsPerRun(200, func() {
			if _, err := fl.Submit(ctx, read); err != nil {
				t.Fatal(err)
			}
		})
		fl.Close()
		if n != 0 {
			t.Errorf("metrics %v: Submit allocates %v times per read, want 0", metrics, n)
		}
	}
}

// TestFleetQueueWaitSubMicrosecond: an uncontended read waits well
// under a microsecond for its shard's lock, and fleet.queue_wait_us
// still records that wait in fractional microseconds: over 1000 reads
// the histogram's sum is positive and equals the sum of the returned
// QueueWait values up to the sum's fixed-point rounding.
func TestFleetQueueWaitSubMicrosecond(t *testing.T) {
	cfg := fleetTestConfig()
	cfg.Metrics = obs.NewRegistry(cfg.Shards)
	fl, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	const n = 1000
	var want float64
	for i := 0; i < n; i++ {
		res, err := fl.Submit(context.Background(), FleetRead{LPN: int64(i), Policy: "sentinel"})
		if err != nil {
			t.Fatal(err)
		}
		want += float64(res.QueueWait) / float64(time.Microsecond)
	}
	var got *mathx.LogHist
	for _, h := range cfg.Metrics.Snapshot().Hists {
		if h.Name == "fleet.queue_wait_us" {
			got = h.Hist
		}
	}
	if got == nil || got.Count() != n {
		t.Fatalf("fleet.queue_wait_us = %+v, want %d samples", got, n)
	}
	if got.Sum() <= 0 || math.Abs(got.Sum()-want) > n*1e-6 {
		t.Fatalf("fleet.queue_wait_us sum %v µs, want %v µs (> 0)", got.Sum(), want)
	}
}

// TestFleetReadDeadline: a FleetRead.Deadline already past when the
// read takes its shard's lock rejects it with context.DeadlineExceeded
// and no device work; a zero Deadline never expires; a cancelled
// context is rejected at the lock too.
func TestFleetReadDeadline(t *testing.T) {
	cfg := fleetTestConfig()
	cfg.Metrics = obs.NewRegistry(cfg.Shards)
	fl, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	const lpn = 10
	set := cfg.Metrics.Set(fl.ShardOf(lpn))
	expired := set.Counter("fleet.deadline_expired", "")
	serviced := set.Counter("fleet.reads_serviced", "")
	check := func(name string, read FleetRead, ctx context.Context, want error) {
		t.Helper()
		e0, s0 := expired.Value(), serviced.Value()
		_, err := fl.Submit(ctx, read)
		if !errors.Is(err, want) {
			t.Fatalf("%s: got %v, want %v", name, err, want)
		}
		de, ds := expired.Value()-e0, serviced.Value()-s0
		if want != nil && (de != 1 || ds != 0) || want == nil && (de != 0 || ds != 1) {
			t.Fatalf("%s: deadline_expired +%d, reads_serviced +%d", name, de, ds)
		}
	}
	bg := context.Background()
	check("past deadline", FleetRead{LPN: lpn, Policy: "sentinel",
		Deadline: time.Now().Add(-time.Millisecond)}, bg, context.DeadlineExceeded)
	check("zero deadline", FleetRead{LPN: lpn, Policy: "sentinel"}, bg, nil)
	check("future deadline", FleetRead{LPN: lpn, Policy: "sentinel",
		Deadline: time.Now().Add(time.Hour)}, bg, nil)
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	check("cancelled context", FleetRead{LPN: lpn, Policy: "sentinel",
		Deadline: time.Now().Add(time.Hour)}, cancelled, context.Canceled)
}

// TestFleetCloseWaitsForBlockedSubmitters: with submitters blocked
// behind a stalled shard, Close returns only once every one of them has
// its reply — serviced, or expired at the lock when its Deadline passed
// while it waited — and a later Submit is refused.
func TestFleetCloseWaitsForBlockedSubmitters(t *testing.T) {
	gate := &stallGate{release: make(chan struct{})}
	gate.on.Store(true)
	cfg := fleetTestConfig()
	cfg.Shards = 1
	cfg.Stall = gate.stall
	fl, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	var replied atomic.Int64
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			read := FleetRead{LPN: int64(i), Policy: "sentinel"}
			if i%2 == 1 {
				read.Deadline = time.Now().Add(20 * time.Millisecond)
			}
			_, errs[i] = fl.Submit(context.Background(), read)
			replied.Add(1)
		}()
	}
	// One submitter holds the lock in the stall, the rest wait for it.
	for limit := time.Now().Add(10 * time.Second); fl.shards[0].waiting.Load() < n-1; {
		if time.Now().After(limit) {
			t.Fatalf("%d submitters waiting, want %d", fl.shards[0].waiting.Load(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan int64)
	go func() {
		fl.Close()
		closed <- replied.Load()
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while submitters were blocked")
	case <-time.After(50 * time.Millisecond): // past every Deadline
	}
	gate.on.Store(false)
	close(gate.release)
	if got := <-closed; got != n {
		t.Fatalf("Close returned after %d of %d replies", got, n)
	}
	wg.Wait()
	var expired int
	for i, err := range errs {
		switch {
		case errors.Is(err, context.DeadlineExceeded) && i%2 == 1:
			expired++
		case err != nil:
			t.Errorf("submitter %d: %v", i, err)
		}
	}
	if expired < n/2-1 {
		t.Errorf("%d deadline-stamped waiters expired, want at least %d", expired, n/2-1)
	}
	if _, err := fl.Submit(context.Background(), FleetRead{LPN: 1, Policy: "sentinel"}); !errors.Is(err, ErrFleetStopped) {
		t.Fatalf("closed fleet: got %v", err)
	}
}

// BenchmarkFleetSubmit is the fleet's per-read cost from concurrent
// submitters (GOMAXPROCS of them): single-page reads spread over the
// premapped space, on one shard and on two.
func BenchmarkFleetSubmit(b *testing.B) {
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			cfg := fleetTestConfig()
			cfg.Shards = shards
			cfg.Metrics = obs.NewRegistry(shards)
			fl, err := NewFleet(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer fl.Close()
			var seq atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				ctx := context.Background()
				lpn := seq.Add(1) * 997
				for pb.Next() {
					lpn = (lpn + 61) % cfg.PremapPages
					if _, err := fl.Submit(ctx, FleetRead{LPN: lpn, Pages: 1, Policy: "sentinel"}); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

package ssdsim

import (
	"flag"
	"reflect"
	"slices"
	"testing"

	"sentinel3d/internal/mathx"
	"sentinel3d/internal/obs"
	"sentinel3d/internal/parallel"
	"sentinel3d/internal/trace"
)

// longRun gates the 100M-request determinism smoke:
//
//	go test ./internal/ssdsim/ -run LongFleet -long -timeout 30m
var longRun = flag.Bool("long", false, "run the 100M-request fleet determinism smoke")

// TestEngineFleetSingleDeviceGolden: a 1-device fleet — with the fleet
// knobs set explicitly, in both striped and replicated modes — must
// reproduce the pre-fleet engine's report byte for byte, including the
// absence of PerDevice rows. This pins the Devices=1 fast path to the
// PR4 goldens: the stripe map degenerates to the identity and no fleet
// state may leak into the output.
func TestEngineFleetSingleDeviceGolden(t *testing.T) {
	cfg := engineConfig()
	reqs := engineTrace(t, 5000)

	run := func(rc ReplayConfig) *Report {
		t.Helper()
		eng, err := NewEngine(rc, benchSampler())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Replay(trace.SliceOpener(reqs))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	want := run(ReplayConfig{
		Sim: cfg, Shards: 2, CollectLatencies: true, Precondition: true,
	})
	if want.PerDevice != nil {
		t.Fatalf("single-device report grew PerDevice rows: %+v", want.PerDevice)
	}
	for _, rc := range []ReplayConfig{
		{Sim: cfg, Shards: 2, Devices: 1, CollectLatencies: true, Precondition: true},
		{Sim: cfg, Shards: 2, Devices: 1, Replicate: true, CollectLatencies: true, Precondition: true},
	} {
		got := run(rc)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("1-device fleet (replicate=%v) diverged from the single-device engine:\n got %+v\nwant %+v",
				rc.Replicate, got, want)
		}
	}
}

// TestEngineFleetDeviceWorkerDeterminism: for every device count the
// merged report, the per-device rows and the deterministic metric
// rendering must be byte-identical at every worker count — the fleet
// merge is in fixed (device, shard) order, never arrival order.
func TestEngineFleetDeviceWorkerDeterminism(t *testing.T) {
	cfg := engineConfig()
	reqs := engineTrace(t, 20000)

	for _, devices := range []int{1, 2, 4} {
		var base *Report
		var baseProm string
		for _, w := range []int{1, 4, 8} {
			reg := obs.NewRegistry(devices * 2)
			reg.KeepSlowest(16)
			eng, err := NewEngine(ReplayConfig{
				Sim: cfg, Shards: 2, Devices: devices,
				Precondition: true, Metrics: reg,
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
			prom := promText(reg.Snapshot().Deterministic())
			if base == nil {
				base, baseProm = rep, prom
				continue
			}
			if !reflect.DeepEqual(rep, base) {
				t.Fatalf("devices=%d: report diverged at %d workers:\n got %+v\nwant %+v",
					devices, w, rep, base)
			}
			if prom != baseProm {
				t.Fatalf("devices=%d: metric rendering diverged at %d workers", devices, w)
			}
		}
		checkFleetReport(t, base, devices, len(reqs))
	}
}

// checkFleetReport validates the PerDevice contract: one summary per
// device whose counters sum to the merged report, no latency vectors,
// and every device actually serviced work (the stripe map balances the
// fleet even on hot-range traces).
func checkFleetReport(t *testing.T, rep *Report, devices, requests int) {
	t.Helper()
	if rep.Requests != requests {
		t.Fatalf("devices=%d: %d requests serviced, want %d", devices, rep.Requests, requests)
	}
	if devices == 1 {
		if rep.PerDevice != nil {
			t.Fatalf("single-device report grew PerDevice rows")
		}
		return
	}
	if len(rep.PerDevice) != devices {
		t.Fatalf("PerDevice has %d rows, want %d", len(rep.PerDevice), devices)
	}
	var reqs, reads, writes, gcw int
	for d, sum := range rep.PerDevice {
		if sum.ReadLatencies != nil {
			t.Fatalf("device %d row retained %d latencies", d, len(sum.ReadLatencies))
		}
		if sum.Requests == 0 {
			t.Fatalf("device %d serviced nothing — stripe map is unbalanced", d)
		}
		reqs += sum.Requests
		reads += sum.Reads
		writes += sum.Writes
		gcw += int(sum.GCWrites)
	}
	if reqs != rep.Requests || reads != rep.Reads || writes != rep.Writes ||
		gcw != int(rep.GCWrites) {
		t.Fatalf("PerDevice rows (req=%d rd=%d wr=%d gc=%d) do not sum to the merged report (req=%d rd=%d wr=%d gc=%d)",
			reqs, reads, writes, gcw, rep.Requests, rep.Reads, rep.Writes, rep.GCWrites)
	}
}

// TestEngineFleetReplicated: replication fans every write out to all
// devices while reads round-robin — so against a striped (or 1-device)
// run of the same trace, reads match and writes multiply by the fleet
// size.
func TestEngineFleetReplicated(t *testing.T) {
	cfg := engineConfig()
	reqs := engineTrace(t, 10000)

	run := func(devices int, replicate bool) *Report {
		t.Helper()
		eng, err := NewEngine(ReplayConfig{
			Sim: cfg, Shards: 2, Devices: devices, Replicate: replicate,
			Precondition: true,
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
	base := run(1, false)
	const devices = 2
	repl := run(devices, true)

	if repl.Reads != base.Reads {
		t.Fatalf("replicated reads %d, want %d (round-robin must not duplicate)", repl.Reads, base.Reads)
	}
	if repl.Writes != devices*base.Writes {
		t.Fatalf("replicated writes %d, want %d (fan-out to every device)", repl.Writes, devices*base.Writes)
	}
	if repl.Requests != base.Reads+devices*base.Writes {
		t.Fatalf("replicated requests %d, want %d", repl.Requests, base.Reads+devices*base.Writes)
	}
	checkFleetReport(t, repl, devices, repl.Requests)
}

// TestEngineFleetMillionRequestDeterminism is the fleet half of the
// scale acceptance check: 1M binary-encoded requests over 2- and
// 4-device fleets (devices=1 is TestEngineMillionRequestDeterminism)
// must give byte-identical reports and metric renderings at worker
// counts {1, 4, 8}. Skipped under -short.
func TestEngineFleetMillionRequestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 1M requests six times")
	}
	cfg := DefaultConfig()
	cfg.Geo = benchGeometry()
	spec := benchSpec(cfg.Geo)
	const n = 1_000_000
	gen, err := trace.NewGenerator(spec, n, 7)
	if err != nil {
		t.Fatal(err)
	}
	data, err := trace.EncodeBinarySource(gen)
	if err != nil {
		t.Fatal(err)
	}
	open, err := trace.BinaryOpener(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, devices := range []int{2, 4} {
		var base *Report
		var baseProm string
		for _, w := range []int{1, 4, 8} {
			reg := obs.NewRegistry(devices * 8)
			reg.KeepSlowest(32)
			eng, err := NewEngine(ReplayConfig{
				Sim: cfg, Shards: 8, Devices: devices,
				Precondition: true, Metrics: reg,
			}, benchSampler())
			if err != nil {
				t.Fatal(err)
			}
			prev := parallel.SetWorkers(w)
			rep, err := eng.Replay(open)
			parallel.SetWorkers(prev)
			if err != nil {
				t.Fatal(err)
			}
			prom := promText(reg.Snapshot().Deterministic())
			if base == nil {
				base, baseProm = rep, prom
				checkFleetReport(t, rep, devices, n)
				continue
			}
			if !reflect.DeepEqual(rep, base) {
				t.Fatalf("devices=%d: report diverged at %d workers", devices, w)
			}
			if prom != baseProm {
				t.Fatalf("devices=%d: metric rendering diverged at %d workers", devices, w)
			}
		}
	}
}

// TestEngineLongFleetDeterminism replays a 100M-request generator
// stream over a 2-device fleet at 1 and 4 workers and requires
// byte-identical reports — the workflow-dispatch CI smoke behind -long.
func TestEngineLongFleetDeterminism(t *testing.T) {
	if !*longRun {
		t.Skip("pass -long to replay 100M requests twice")
	}
	cfg := DefaultConfig()
	cfg.Geo = benchGeometry()
	spec := benchSpec(cfg.Geo)
	const n = 100_000_000
	var base *Report
	for _, w := range []int{1, 4} {
		eng, err := NewEngine(ReplayConfig{
			Sim: cfg, Shards: 8, Devices: 2, Precondition: true,
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
		if base == nil {
			base = rep
			checkFleetReport(t, rep, 2, n)
			continue
		}
		if !reflect.DeepEqual(rep, base) {
			t.Fatalf("100M-request report diverged at %d workers", w)
		}
	}
}

// FuzzStripeMap: for any fleet shape, every LPN routes to exactly one
// device and the (device, local) pair round-trips through global — the
// stripe map is a bijection — and the shift/mask fast paths agree with
// the plain divide/modulo definition. The shard router shared by Engine
// and Fleet then stays in range and its mask fast path agrees with the
// modulo one.
func FuzzStripeMap(f *testing.F) {
	f.Add(uint8(4), uint8(8), int64(12345))
	f.Add(uint8(1), uint8(1), int64(0))
	f.Add(uint8(3), uint8(5), int64(1<<40))
	f.Add(uint8(2), uint8(2), int64(-9))
	f.Add(uint8(16), uint8(4), int64(1<<62))
	f.Fuzz(func(t *testing.T, dByte, sByte uint8, lpn int64) {
		devices := int(dByte%32) + 1
		shards := int(sByte%16) + 1
		for _, replicate := range []bool{false, true} {
			m := newStripeMap(devices, replicate)
			dev, local := m.route(lpn)
			if dev < 0 || dev >= devices {
				t.Fatalf("route(%d) device %d out of [0,%d)", lpn, dev, devices)
			}
			switch {
			case lpn < 0:
				if dev != 0 || local != lpn {
					t.Fatalf("negative LPN %d routed to (%d, %d), want (0, unchanged)", lpn, dev, local)
				}
			case replicate:
				if local != lpn {
					t.Fatalf("replicated route(%d) rewrote the address to %d", lpn, local)
				}
			default:
				// Reference: plain divide/modulo, no fast paths.
				g := lpn / stripeGranule
				wantDev := int(g % int64(devices))
				wantLocal := (g/int64(devices))*stripeGranule + lpn%stripeGranule
				if devices == 1 {
					wantDev, wantLocal = 0, lpn
				}
				if dev != wantDev || local != wantLocal {
					t.Fatalf("route(%d) = (%d, %d), reference (%d, %d)", lpn, dev, local, wantDev, wantLocal)
				}
				if back := m.global(dev, local); back != lpn {
					t.Fatalf("global(%d, %d) = %d, want %d", dev, local, back, lpn)
				}
				if b := m.localBound(lpn); local > b {
					t.Fatalf("route(%d) local %d above localBound %d", lpn, local, b)
				}
			}
			// Shard router: in range, and the pow2 mask path agrees
			// with modulo.
			s := newShardRouter(shards).of(local)
			if s < 0 || s >= shards {
				t.Fatalf("shard router(%d) = %d out of [0,%d)", local, s, shards)
			}
			if local >= 0 {
				if want := int((local / shardGranule) % int64(shards)); s != want {
					t.Fatalf("shard router(%d) = %d, reference %d", local, s, want)
				}
			} else if s != 0 {
				t.Fatalf("negative local %d routed to shard %d, want 0", local, s)
			}
		}
	})
}

// TestLPNDedupModes: bitmap and sorted modes must yield the same
// ascending unique sequence for the same inserts — including negatives
// and LPNs beyond the bitmap universe, which spill to the sorted path —
// and addRange must equal per-page adds.
func TestLPNDedupModes(t *testing.T) {
	const cap = 1000
	rng := mathx.NewRand(99)
	type ins struct {
		lpn int64
		n   int
	}
	var inserts []ins
	for i := 0; i < 4000; i++ {
		// Mostly in [0, cap), with negatives and over-bound spills mixed in.
		lpn := int64(rng.Intn(cap+300)) - 100
		inserts = append(inserts, ins{lpn, 1 + rng.Intn(8)})
	}

	collect := func(maxLPN int64, perPage bool) []int64 {
		d := newLPNDedup(maxLPN)
		for _, in := range inserts {
			if perPage {
				for p := 0; p < in.n; p++ {
					d.add(in.lpn + int64(p))
				}
			} else {
				d.addRange(in.lpn, in.n)
			}
		}
		var got []int64
		if err := d.each(func(lpn int64) error {
			got = append(got, lpn)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}

	want := collect(0, true) // sorted mode, per-page adds: the reference
	if !slices.IsSorted(want) || len(slices.Compact(slices.Clone(want))) != len(want) {
		t.Fatalf("reference sequence is not ascending unique")
	}
	for _, c := range []struct {
		name    string
		maxLPN  int64
		perPage bool
	}{
		{"sorted/addRange", 0, false},
		{"bitmap/add", cap, true},
		{"bitmap/addRange", cap, false},
		{"smallBitmap/addRange", cap / 4, false}, // most inserts spill
	} {
		if got := collect(c.maxLPN, c.perPage); !slices.Equal(got, want) {
			t.Fatalf("%s: sequence diverged (%d vs %d members)", c.name, len(got), len(want))
		}
	}
}

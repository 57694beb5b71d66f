package ftl

import (
	"testing"

	"sentinel3d/internal/fault"
	"sentinel3d/internal/mathx"
)

// scriptedFaults fails exactly the listed operations; handy for directed
// retirement tests where hash-driven rates would be awkward.
type scriptedFaults struct {
	progFail  map[[4]int]bool // plane, block, page, erases
	eraseFail map[[3]int]bool // plane, block, erases
}

func (s *scriptedFaults) PageProgramFails(plane, block, page, erases int) bool {
	return s.progFail[[4]int{plane, block, page, erases}]
}

func (s *scriptedFaults) BlockEraseFails(plane, block, erases int) bool {
	return s.eraseFail[[3]int{plane, block, erases}]
}

func TestProgramFaultRetiresAndRelocates(t *testing.T) {
	f, err := New(smallGeo())
	if err != nil {
		t.Fatal(err)
	}
	// Fill a few pages of plane 0's active block (block 0), then fail the
	// next program on it.
	planes := f.geo.Planes()
	var lpns []int64
	for i := 0; i < 3*planes; i++ {
		lpn := int64(i)
		if _, err := f.Write(lpn); err != nil {
			t.Fatal(err)
		}
		lpns = append(lpns, lpn)
	}
	f.Faults = &scriptedFaults{
		progFail: map[[4]int]bool{{0, 0, 3, 0}: true},
	}
	res, err := f.Write(int64(3 * planes)) // lands on plane 0, page 3
	if err != nil {
		t.Fatal(err)
	}
	if res.RetiredBlocks != 1 {
		t.Fatalf("RetiredBlocks = %d, want 1", res.RetiredBlocks)
	}
	if !f.planes[0].blocks[0].retired {
		t.Fatal("block (0,0) not retired after program fault")
	}
	if f.BadBlocks != 1 {
		t.Fatalf("BadBlocks = %d, want 1", f.BadBlocks)
	}
	// The three pages already on the block were relocated.
	if len(res.Migrations) != 3 {
		t.Fatalf("migrations = %d, want 3", len(res.Migrations))
	}
	// Every LPN (old and new) still resolves, and none into the bad block.
	for _, lpn := range append(lpns, int64(3*planes)) {
		ppn, ok := f.Translate(lpn)
		if !ok {
			t.Fatalf("LPN %d lost after retirement", lpn)
		}
		if ppn.Plane == 0 && ppn.Block == 0 {
			t.Fatalf("LPN %d still mapped into the retired block", lpn)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEraseFaultRetiresVictim(t *testing.T) {
	geo := smallGeo()
	f, err := New(geo)
	if err != nil {
		t.Fatal(err)
	}
	// Fail the first erase of plane 0's blocks 1 and 2: whenever GC picks
	// one of them it must retire it and keep collecting elsewhere.
	sf := &scriptedFaults{eraseFail: map[[3]int]bool{
		{0, 1, 0}: true,
		{0, 2, 0}: true,
	}}
	f.Faults = sf
	// Overwrite a small working set until GC kicks in everywhere.
	span := int64(geo.PagesTotal() / 4)
	rng := mathx.NewRand(7)
	for i := 0; i < geo.PagesTotal()*2; i++ {
		if _, err := f.Write(int64(rng.Intn(int(span)))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	retiredP0 := 0
	for b := 0; b < geo.BlocksPerPlane; b++ {
		if f.planes[0].blocks[b].retired {
			retiredP0++
		}
	}
	if retiredP0 == 0 {
		t.Fatal("no plane-0 blocks retired despite failing every erase")
	}
	if f.BadBlocks != int64(retiredP0) {
		t.Fatalf("BadBlocks = %d, want %d", f.BadBlocks, retiredP0)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// recordingWear tallies BlockErased callbacks per block.
type recordingWear struct {
	wear   map[[2]int]int // (plane, block) -> erase attempts observed
	failed int
	ok     int
}

func (r *recordingWear) BlockErased(plane, block int, failed bool) {
	if r.wear == nil {
		r.wear = map[[2]int]int{}
	}
	r.wear[[2]int{plane, block}]++
	if failed {
		r.failed++
	} else {
		r.ok++
	}
}

// TestWearSinkSeesFailedErases is the satellite regression: a failed
// erase advances the block's wear counter, and that wear must be
// visible to stress consumers through the WearSink hook — not only the
// successful erases that f.Erases counts.
func TestWearSinkSeesFailedErases(t *testing.T) {
	geo := smallGeo()
	f, err := New(geo)
	if err != nil {
		t.Fatal(err)
	}
	sink := &recordingWear{}
	f.Wear = sink
	f.Faults = &scriptedFaults{eraseFail: map[[3]int]bool{
		{0, 1, 0}: true,
		{0, 2, 0}: true,
	}}
	span := int64(geo.PagesTotal() / 4)
	rng := mathx.NewRand(7)
	for i := 0; i < geo.PagesTotal()*2; i++ {
		if _, err := f.Write(int64(rng.Intn(int(span)))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if sink.failed == 0 {
		t.Fatal("no failed erase reached the wear sink despite scripted erase faults")
	}
	if int64(sink.ok) != f.Erases {
		t.Fatalf("sink saw %d successful erases, FTL counted %d", sink.ok, f.Erases)
	}
	// The sink's per-block totals must match the FTL's own wear
	// accounting exactly — including on retired blocks whose only erase
	// attempt failed.
	for pb, n := range sink.wear {
		if got := f.planes[pb[0]].blocks[pb[1]].erases; got != n {
			t.Fatalf("block (%d,%d): sink wear %d, FTL erases %d", pb[0], pb[1], n, got)
		}
	}
	for _, pb := range [][2]int{{0, 1}, {0, 2}} {
		if !f.planes[pb[0]].blocks[pb[1]].retired {
			continue // GC may not have picked it before the workload ended
		}
		if sink.wear[pb] == 0 {
			t.Fatalf("retired block (%d,%d) wear invisible to sink", pb[0], pb[1])
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultInjectorWorkload drives the hash-keyed injector end to end:
// a sustained overwrite workload over a faulty medium must retire blocks,
// keep every live LPN resolvable, and hold the FTL invariants.
func TestFaultInjectorWorkload(t *testing.T) {
	geo := smallGeo()
	geo.BlocksPerPlane = 16 // headroom for accumulated retirements
	f, err := New(geo)
	if err != nil {
		t.Fatal(err)
	}
	f.Faults = fault.MustNew(fault.Profile{
		Seed:               13,
		FTLProgramFailRate: 0.0005,
		FTLEraseFailRate:   0.002,
	})
	span := int64(geo.PagesTotal() / 4)
	rng := mathx.NewRand(11)
	live := map[int64]bool{}
	for i := 0; i < geo.PagesTotal()*3; i++ {
		lpn := int64(rng.Intn(int(span)))
		if _, err := f.Write(lpn); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		live[lpn] = true
	}
	if f.BadBlocks == 0 {
		t.Fatal("workload over faulty medium retired no blocks")
	}
	for lpn := range live {
		if _, ok := f.Translate(lpn); !ok {
			t.Fatalf("live LPN %d lost", lpn)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultWorkloadDeterministic repeats the injector workload and checks
// byte-identical outcomes (hash-keyed decisions, not call-order ones).
func TestFaultWorkloadDeterministic(t *testing.T) {
	run := func() (int64, int64, int64, int64) {
		geo := smallGeo()
		geo.BlocksPerPlane = 16
		f, err := New(geo)
		if err != nil {
			t.Fatal(err)
		}
		f.Faults = fault.MustNew(fault.Profile{
			Seed:               13,
			FTLProgramFailRate: 0.0005,
			FTLEraseFailRate:   0.002,
		})
		rng := mathx.NewRand(11)
		span := int64(geo.PagesTotal() / 4)
		for i := 0; i < geo.PagesTotal()*2; i++ {
			if _, err := f.Write(int64(rng.Intn(int(span)))); err != nil {
				t.Fatal(err)
			}
		}
		return f.HostWrites, f.GCWrites, f.Erases, f.BadBlocks
	}
	h1, g1, e1, b1 := run()
	h2, g2, e2, b2 := run()
	if h1 != h2 || g1 != g2 || e1 != e2 || b1 != b2 {
		t.Fatalf("faulted FTL workload not deterministic: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			h1, g1, e1, b1, h2, g2, e2, b2)
	}
}

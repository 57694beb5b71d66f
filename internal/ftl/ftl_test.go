package ftl

import (
	"runtime"
	"testing"

	"sentinel3d/internal/fault"
	"sentinel3d/internal/mathx"
)

func smallGeo() Geometry {
	return Geometry{
		Channels: 2, ChipsPerChan: 1, DiesPerChip: 1, PlanesPerDie: 2,
		BlocksPerPlane: 8, PagesPerBlock: 32,
	}
}

func TestGeometryValidate(t *testing.T) {
	if err := DefaultGeometry().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := smallGeo()
	bad.Channels = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted zero channels")
	}
	bad = smallGeo()
	bad.BlocksPerPlane = 2
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted too few blocks for GC")
	}
}

func TestGeometryCounts(t *testing.T) {
	g := smallGeo()
	if g.Planes() != 4 || g.Dies() != 2 {
		t.Fatalf("planes=%d dies=%d", g.Planes(), g.Dies())
	}
	if g.PagesTotal() != 4*8*32 {
		t.Fatalf("pages = %d", g.PagesTotal())
	}
	if g.Channel(0) != 0 || g.Channel(3) != 1 {
		t.Fatal("plane-to-channel mapping wrong")
	}
	if g.Die(1) != 0 || g.Die(2) != 1 {
		t.Fatal("plane-to-die mapping wrong")
	}
}

func TestWriteAndTranslate(t *testing.T) {
	f, err := New(smallGeo())
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Write(42)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := f.Translate(42)
	if !ok || got != res.Target {
		t.Fatalf("Translate = %+v/%v, want %+v", got, ok, res.Target)
	}
	if _, ok := f.Translate(43); ok {
		t.Fatal("unmapped LPN resolved")
	}
	if _, err := f.Write(-1); err == nil {
		t.Fatal("accepted negative LPN")
	}
}

func TestOverwriteInvalidatesOldCopy(t *testing.T) {
	f, _ := New(smallGeo())
	r1, _ := f.Write(7)
	r2, _ := f.Write(7)
	if r1.Target == r2.Target {
		t.Fatal("overwrite reused the same physical page")
	}
	if got, _ := f.Translate(7); got != r2.Target {
		t.Fatal("translation not updated")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWritesStripeAcrossPlanes(t *testing.T) {
	f, _ := New(smallGeo())
	planes := map[int]bool{}
	for i := int64(0); i < 8; i++ {
		r, err := f.Write(i)
		if err != nil {
			t.Fatal(err)
		}
		planes[r.Target.Plane] = true
	}
	if len(planes) != 4 {
		t.Fatalf("8 writes hit %d planes, want 4", len(planes))
	}
}

func TestGCReclaimsSpace(t *testing.T) {
	g := smallGeo()
	f, _ := New(g)
	// Working set of half the device, written repeatedly: GC must keep
	// up indefinitely.
	workingSet := int64(g.PagesTotal() / 2)
	r := mathx.NewRand(1)
	for i := 0; i < g.PagesTotal()*4; i++ {
		lpn := int64(r.Intn(int(workingSet)))
		if _, err := f.Write(lpn); err != nil {
			t.Fatalf("write %d failed: %v", i, err)
		}
	}
	if f.GCWrites == 0 || f.Erases == 0 {
		t.Fatalf("GC never ran: gcwrites=%d erases=%d", f.GCWrites, f.Erases)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Write amplification should be sane (< 3 at 50% utilization).
	wa := float64(f.HostWrites+f.GCWrites) / float64(f.HostWrites)
	if wa > 3 {
		t.Fatalf("write amplification %v too high", wa)
	}
}

func TestSequentialOverwriteLowWA(t *testing.T) {
	// Pure sequential overwrite invalidates whole blocks: GC should find
	// empty victims and migrate almost nothing.
	g := smallGeo()
	f, _ := New(g)
	n := int64(g.PagesTotal()) / 2
	for round := 0; round < 6; round++ {
		for i := int64(0); i < n; i++ {
			if _, err := f.Write(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	wa := float64(f.HostWrites+f.GCWrites) / float64(f.HostWrites)
	if wa > 1.2 {
		t.Fatalf("sequential WA %v, want ~1", wa)
	}
}

func TestEraseAccounting(t *testing.T) {
	g := smallGeo()
	f, _ := New(g)
	for i := 0; i < g.PagesTotal()*2; i++ {
		if _, err := f.Write(int64(i % (g.PagesTotal() / 2))); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for p := 0; p < g.Planes(); p++ {
		for b := 0; b < g.BlocksPerPlane; b++ {
			total += f.planes[p].blocks[b].erases
		}
	}
	if int64(total) != f.Erases {
		t.Fatalf("per-block erases %d != total %d", total, f.Erases)
	}
}

func TestInvariantsAfterRandomWorkload(t *testing.T) {
	// Property: after any write sequence, every mapped LPN reads back
	// from a page that holds it.
	g := smallGeo()
	f, _ := New(g)
	r := mathx.NewRand(99)
	ws := int64(g.PagesTotal() * 6 / 10)
	shadow := map[int64]bool{}
	for i := 0; i < 5000; i++ {
		lpn := int64(r.Intn(int(ws)))
		if _, err := f.Write(lpn); err != nil {
			t.Fatal(err)
		}
		shadow[lpn] = true
	}
	for lpn := range shadow {
		if _, ok := f.Translate(lpn); !ok {
			t.Fatalf("LPN %d lost", lpn)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrationsReported(t *testing.T) {
	g := smallGeo()
	f, _ := New(g)
	// Fill with a working set large enough that victims hold valid data.
	ws := int64(g.PagesTotal() * 7 / 10)
	sawMigration := false
	for i := 0; i < g.PagesTotal()*3; i++ {
		res, err := f.Write(int64(i) % ws)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Migrations) > 0 {
			sawMigration = true
		}
	}
	if !sawMigration {
		t.Fatal("no write ever reported GC migrations")
	}
}

// TestCheckInvariantsCatchesOrphans unmaps an LPN without invalidating
// its page: every remaining L2P entry still points at a live page that
// holds it, so only the live-page side of the bijection check sees the
// orphan.
func TestCheckInvariantsCatchesOrphans(t *testing.T) {
	for _, dense := range []bool{false, true} {
		f, _ := New(smallGeo())
		if dense {
			f.SetLPNBound(100)
		}
		for lpn := int64(0); lpn < 20; lpn++ {
			if _, err := f.Write(lpn); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if dense {
			f.dense[5] = 0
		} else {
			delete(f.l2p, 5)
		}
		if err := f.CheckInvariants(); err == nil {
			t.Fatalf("dense=%v: live page with no L2P entry passed", dense)
		}
	}
}

// TestFTLBytesPerPage bounds what New allocates per physical page on
// DefaultGeometry: the 4-byte reverse map, the liveness bitmap and the
// block metadata, with no 8-byte entry per page.
func TestFTLBytesPerPage(t *testing.T) {
	geo := DefaultGeometry()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := New(geo)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(f)
	perPage := float64(after.TotalAlloc-before.TotalAlloc) / float64(geo.PagesTotal())
	t.Logf("%.3f bytes per physical page", perPage)
	if perPage > 4.5 {
		t.Fatalf("New allocates %.3f bytes per physical page, want <= 4.5", perPage)
	}
}

// TestReverseMapSpill writes a working set whose LPNs start at, straddle
// or lie far above the 32-bit reverse-map limit, over a medium that fails
// programs and erases, and checks the invariants after every write: GC
// and retirement must read back each spilled LPN exactly. Below the limit
// the spill map is never built; at the end it holds exactly the pages
// whose entry spills.
func TestReverseMapSpill(t *testing.T) {
	g := smallGeo()
	g.BlocksPerPlane = 16
	ws := int64(g.PagesTotal() / 2)
	for _, base := range []int64{0, lpnSpill - 100, lpnSpill, 1 << 40, 1<<62 + 5} {
		f, _ := New(g)
		f.Faults = fault.MustNew(fault.Profile{Seed: 3, FTLProgramFailRate: 0.0005, FTLEraseFailRate: 0.002})
		r := mathx.NewRand(7)
		for i := 0; i < 3000; i++ {
			if _, err := f.Write(base + int64(r.Intn(int(ws)))); err != nil {
				t.Fatalf("base %d write %d: %v", base, i, err)
			}
			if err := f.CheckInvariants(); err != nil {
				t.Fatalf("base %d write %d: %v", base, i, err)
			}
		}
		if f.GCWrites == 0 || f.BadBlocks == 0 {
			t.Fatalf("base %d: %d GC writes, %d bad blocks; want both", base, f.GCWrites, f.BadBlocks)
		}
		if base+ws <= lpnSpill && f.spill != nil {
			t.Fatalf("base %d: spill map built for LPNs that fit in 32 bits", base)
		}
		if base >= lpnSpill && len(f.spill) == 0 {
			t.Fatalf("base %d: nothing spilled", base)
		}
	}
}

// TestCheckInvariantsCatchesSpillDrift changes a spilled LPN, then adds a
// spill key no page refers to; CheckInvariants must reject both.
func TestCheckInvariantsCatchesSpillDrift(t *testing.T) {
	f, _ := New(smallGeo())
	for lpn := int64(lpnSpill - 10); lpn < lpnSpill+10; lpn++ {
		if _, err := f.Write(lpn); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	ppn, _ := f.Translate(lpnSpill + 3)
	key := f.pageKey(ppn.Plane, ppn.Block, ppn.Page)
	f.spill[key]++
	if err := f.CheckInvariants(); err == nil {
		t.Fatal("a changed spilled LPN passed")
	}
	f.spill[key]--
	f.spill[f.pageKey(0, 5, 0)] = lpnSpill + 99
	if err := f.CheckInvariants(); err == nil {
		t.Fatal("a spill key with no spilled page passed")
	}
}

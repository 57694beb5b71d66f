package ftl

import (
	"fmt"
	"slices"
	"testing"

	"sentinel3d/internal/fault"
	"sentinel3d/internal/mathx"
)

// refFTL is the FTL with a plain per-page reverse map in place of the
// liveness bitmap: refBlock.lpn1[page] holds the stored LPN biased by
// one, 0 meaning invalid, and every live-page walk scans the whole
// block. It keeps the allocation, GC-victim and fault-retirement rules
// of FTL, written out the simple way, as the oracle the bitmap FTL must
// match write for write.
type refFTL struct {
	geo                                    Geometry
	l2p                                    map[int64]PPN
	planes                                 []refPlane
	nextPlane                              int
	faults                                 PEFaultModel
	hostWrites, gcWrites, erases, badBlock int64
	moved                                  []int64 // LPNs the last write migrated
}

type refBlock struct {
	lpn1                        []int64
	validCnt, writePtr, erasesN int
	isActive, retired           bool
}

type refPlane struct {
	blocks []refBlock
	active int
	free   []int
}

func newRefFTL(geo Geometry, faults PEFaultModel) *refFTL {
	f := &refFTL{geo: geo, l2p: map[int64]PPN{}, planes: make([]refPlane, geo.Planes()), faults: faults}
	for p := range f.planes {
		ps := &f.planes[p]
		ps.blocks = make([]refBlock, geo.BlocksPerPlane)
		for b := range ps.blocks {
			ps.blocks[b].lpn1 = make([]int64, geo.PagesPerBlock)
			if b > 0 {
				ps.free = append(ps.free, b)
			}
		}
		ps.blocks[0].isActive = true
	}
	return f
}

func (f *refFTL) write(lpn int64) (WriteResult, error) {
	var res WriteResult
	f.moved = f.moved[:0]
	if old, ok := f.l2p[lpn]; ok {
		bm := &f.planes[old.Plane].blocks[old.Block]
		bm.lpn1[old.Page] = 0
		bm.validCnt--
	}
	plane := f.nextPlane
	f.nextPlane = (f.nextPlane + 1) % len(f.planes)
	tgt, err := f.allocate(plane, lpn, &res, true)
	if err != nil {
		return res, err
	}
	f.l2p[lpn] = tgt
	res.Target = tgt
	f.hostWrites++
	for len(f.planes[plane].free) < 2 {
		progressed, err := f.collect(plane, &res)
		if err != nil {
			return res, err
		}
		if !progressed {
			break
		}
	}
	return res, nil
}

func (f *refFTL) allocate(plane int, lpn int64, res *WriteResult, checkFaults bool) (PPN, error) {
	ps := &f.planes[plane]
	for {
		bm := &ps.blocks[ps.active]
		if bm.writePtr == f.geo.PagesPerBlock {
			if len(ps.free) == 0 {
				return PPN{}, fmt.Errorf("ftl: plane %d out of space", plane)
			}
			bm.isActive = false
			ps.active, ps.free = ps.free[0], ps.free[1:]
			bm = &ps.blocks[ps.active]
			bm.isActive = true
		}
		page := bm.writePtr
		if checkFaults && f.faults.PageProgramFails(plane, ps.active, page, bm.erasesN) {
			victim := ps.active
			bm.isActive, bm.retired = false, true
			f.badBlock++
			res.RetiredBlocks++
			if len(ps.free) == 0 {
				return PPN{}, fmt.Errorf("ftl: plane %d out of space retiring block %d", plane, victim)
			}
			ps.active, ps.free = ps.free[0], ps.free[1:]
			ps.blocks[ps.active].isActive = true
			if err := f.relocate(plane, victim, res, false); err != nil {
				return PPN{}, err
			}
			continue
		}
		bm.writePtr++
		bm.lpn1[page] = lpn + 1
		bm.validCnt++
		return PPN{Plane: plane, Block: ps.active, Page: page}, nil
	}
}

func (f *refFTL) relocate(plane, victim int, res *WriteResult, checkFaults bool) error {
	bm := &f.planes[plane].blocks[victim]
	for page, lpn1 := range bm.lpn1 {
		if lpn1 == 0 {
			continue
		}
		res.Migrations = append(res.Migrations, PPN{Plane: plane, Block: victim, Page: page})
		bm.lpn1[page] = 0
		bm.validCnt--
		tgt, err := f.allocate(plane, lpn1-1, res, checkFaults)
		if err != nil {
			return err
		}
		f.l2p[lpn1-1] = tgt
		f.moved = append(f.moved, lpn1-1)
		f.gcWrites++
	}
	return nil
}

func (f *refFTL) collect(plane int, res *WriteResult) (bool, error) {
	ps := &f.planes[plane]
	victim, best := -1, f.geo.PagesPerBlock+1
	for b := range ps.blocks {
		bm := &ps.blocks[b]
		if !bm.isActive && !bm.retired && bm.writePtr == f.geo.PagesPerBlock && bm.validCnt < best {
			victim, best = b, bm.validCnt
		}
	}
	if victim < 0 || best >= f.geo.PagesPerBlock {
		return false, nil
	}
	if err := f.relocate(plane, victim, res, true); err != nil {
		return false, err
	}
	bm := &ps.blocks[victim]
	bm.erasesN++
	if f.faults.BlockEraseFails(plane, victim, bm.erasesN-1) {
		bm.retired = true
		f.badBlock++
		res.RetiredBlocks++
		return true, nil
	}
	bm.writePtr, bm.validCnt = 0, 0
	f.erases++
	res.ErasedBlocks++
	ps.free = append(ps.free, victim)
	return true, nil
}

// FuzzFTLMatchesReference drives the bitmap FTL and refFTL with the same
// writes over a faulty medium and requires them to agree after every
// write: the WriteResult (target, migrations in order, erase and
// retirement counts), the error, every LPN's translation and the
// counters. The writes cover the LPNs [base, base+span), base taken
// modulo 2^62+1, so a base near 2^32-1 straddles the 32-bit reverse-map
// entry and its spill map, and a larger one runs wholly on the spill
// map. dense puts the lower half of the span on the dense L2P path
// where the bound fits it, and the rest on the overflow map.
func FuzzFTLMatchesReference(f *testing.F) {
	const straddle = uint64(lpnSpill - 150) // about half of a 300-page span spills
	f.Add(uint64(1), uint64(0), uint16(300), uint16(0), uint16(0), false)
	f.Add(uint64(2), uint64(0), uint16(420), uint16(40), uint16(400), true)
	f.Add(uint64(3), uint64(0), uint16(200), uint16(300), uint16(2000), true)
	f.Add(uint64(4), uint64(0), uint16(480), uint16(1000), uint16(0), false)
	f.Add(uint64(39), uint64(0), uint16(559), uint16(970), uint16(0), false) // runs out of space
	f.Add(uint64(5), straddle, uint16(300), uint16(0), uint16(0), false)
	f.Add(uint64(6), straddle, uint16(300), uint16(300), uint16(2000), false)
	f.Add(uint64(7), uint64(lpnSpill), uint16(480), uint16(1000), uint16(400), false)
	f.Add(uint64(8), uint64(1)<<40, uint16(420), uint16(40), uint16(400), true)
	f.Add(uint64(9), uint64(1)<<62, uint16(300), uint16(300), uint16(2000), false)
	f.Add(uint64(39), uint64(1)<<62, uint16(559), uint16(970), uint16(0), false) // runs out of space
	f.Fuzz(func(t *testing.T, seed, baseIn uint64, span, progPPM, erasePPM uint16, dense bool) {
		geo := smallGeo()
		geo.BlocksPerPlane = 16
		span = max(1, span%uint16(geo.PagesTotal()*9/10))
		base := int64(baseIn % (1<<62 + 1))
		faults := fault.MustNew(fault.Profile{
			Seed:               seed,
			FTLProgramFailRate: float64(progPPM%5000) / 1e6,
			FTLEraseFailRate:   float64(erasePPM%50000) / 1e6,
		})
		got, err := New(geo)
		if err != nil {
			t.Fatal(err)
		}
		got.Faults = faults
		if dense {
			got.SetLPNBound(base + int64(span)/2)
		}
		want := newRefFTL(geo, faults)
		rng := mathx.NewRand(seed)
		var res WriteResult
		var failed error
		off := int64(0)
		for i := 0; i < 4*geo.PagesTotal(); i++ {
			if rng.Intn(4) == 0 {
				off = (off + 1) % int64(span)
			} else {
				off = int64(rng.Intn(int(span)))
			}
			lpn := base + off
			gerr := got.WriteInto(lpn, &res)
			wres, werr := want.write(lpn)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("write %d (LPN %d): error %v, reference %v", i, lpn, gerr, werr)
			}
			if failed = gerr; failed != nil {
				break // the FTL must not be written after an error
			}
			if res.Target != wres.Target || res.ErasedBlocks != wres.ErasedBlocks ||
				res.RetiredBlocks != wres.RetiredBlocks || !slices.Equal(res.Migrations, wres.Migrations) {
				t.Fatalf("write %d (LPN %d): result %+v, reference %+v", i, lpn, res, wres)
			}
			if got.HostWrites != want.hostWrites || got.GCWrites != want.gcWrites ||
				got.Erases != want.erases || got.BadBlocks != want.badBlock {
				t.Fatalf("write %d: counters (%d,%d,%d,%d), reference (%d,%d,%d,%d)", i,
					got.HostWrites, got.GCWrites, got.Erases, got.BadBlocks,
					want.hostWrites, want.gcWrites, want.erases, want.badBlock)
			}
			// A write can remap only its own LPN and the ones it migrated;
			// a periodic sweep of the whole span backs that up.
			if err := sameTranslate(got, want, lpn); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			for _, m := range want.moved {
				if err := sameTranslate(got, want, m); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
			}
			if i%256 == 0 {
				for l := base; l < base+int64(span); l++ {
					if err := sameTranslate(got, want, l); err != nil {
						t.Fatalf("write %d: %v", i, err)
					}
				}
			}
		}
		for p := range geo.Planes() {
			for b := range geo.BlocksPerPlane {
				rb := &want.planes[p].blocks[b]
				if got.planes[p].blocks[b].erases != rb.erasesN || got.planes[p].blocks[b].retired != rb.retired {
					t.Fatalf("block (%d,%d): erases %d retired %v, reference %d %v", p, b,
						got.planes[p].blocks[b].erases, got.planes[p].blocks[b].retired, rb.erasesN, rb.retired)
				}
			}
		}
		// An error can leave the mapping half updated (see WriteInto).
		if failed == nil {
			if err := got.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// sameTranslate compares one LPN's translation in got and want.
func sameTranslate(got *FTL, want *refFTL, lpn int64) error {
	g, gok := got.Translate(lpn)
	w, wok := want.l2p[lpn]
	if g != w || gok != wok {
		return fmt.Errorf("Translate(%d) = %+v/%v, reference %+v/%v", lpn, g, gok, w, wok)
	}
	return nil
}

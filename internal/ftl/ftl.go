// Package ftl implements a page-mapped flash translation layer over a
// multi-channel SSD geometry: logical-to-physical mapping, round-robin
// write allocation across planes, greedy garbage collection, and per-block
// wear accounting. It is the address-translation substrate beneath the
// trace-driven simulator (paper Figure 14 runs SSDSim with the same
// structure).
package ftl

import (
	"fmt"
	"math"
	"math/bits"
)

// Geometry describes the SSD's physical structure.
type Geometry struct {
	Channels       int
	ChipsPerChan   int
	DiesPerChip    int
	PlanesPerDie   int
	BlocksPerPlane int
	PagesPerBlock  int
}

// DefaultGeometry is a small but fully parallel SSD: 4 channels x 2 chips
// x 2 dies x 2 planes, mirroring SSDSim-style configurations.
func DefaultGeometry() Geometry {
	return Geometry{
		Channels:       4,
		ChipsPerChan:   2,
		DiesPerChip:    2,
		PlanesPerDie:   2,
		BlocksPerPlane: 64,
		PagesPerBlock:  768,
	}
}

// Validate reports geometry errors.
func (g Geometry) Validate() error {
	if g.Channels <= 0 || g.ChipsPerChan <= 0 || g.DiesPerChip <= 0 ||
		g.PlanesPerDie <= 0 || g.BlocksPerPlane <= 0 || g.PagesPerBlock <= 0 {
		return fmt.Errorf("ftl: non-positive geometry %+v", g)
	}
	if g.BlocksPerPlane < 4 {
		return fmt.Errorf("ftl: need >= 4 blocks per plane for GC, got %d",
			g.BlocksPerPlane)
	}
	return nil
}

// Planes returns the total number of planes.
func (g Geometry) Planes() int {
	return g.Channels * g.ChipsPerChan * g.DiesPerChip * g.PlanesPerDie
}

// Dies returns the total number of dies.
func (g Geometry) Dies() int {
	return g.Channels * g.ChipsPerChan * g.DiesPerChip
}

// PagesTotal returns the number of physical pages.
func (g Geometry) PagesTotal() int {
	return g.Planes() * g.BlocksPerPlane * g.PagesPerBlock
}

// PPN is a physical page address.
type PPN struct {
	Plane int // global plane index
	Block int // block within the plane
	Page  int // page within the block
}

// Channel returns the channel of a plane index under g.
func (g Geometry) Channel(plane int) int {
	return plane / (g.ChipsPerChan * g.DiesPerChip * g.PlanesPerDie)
}

// Die returns the global die index of a plane.
func (g Geometry) Die(plane int) int { return plane / g.PlanesPerDie }

// PEFaultModel lets a fault-injection layer (see internal/fault) fail
// individual program and erase operations at the FTL's address level.
// Implementations must be deterministic pure functions of their own seed
// and the arguments, never of call order.
type PEFaultModel interface {
	// PageProgramFails reports whether programming the given page of
	// (plane, block) fails; erases is the block's erase count, so a
	// decision is redrawn after each erase cycle.
	PageProgramFails(plane, block, page, erases int) bool
	// BlockEraseFails reports whether the erase following erase count
	// erases of (plane, block) fails.
	BlockEraseFails(plane, block, erases int) bool
}

type blockMeta struct {
	// live has bit page%64 of word page/64 set while the page holds the
	// current copy of its LPN; zero (a fresh or erased block) means no
	// page is live. An overwrite invalidates the old copy by clearing
	// one bit of this small, cache-resident bitmap.
	live []uint64
	// lpns[page] is the reverse map, the 4-byte entry a real FTL keeps
	// in the page's OOB area: the LPN the page was programmed with,
	// written once at allocate and meaningful only while the page is
	// live. An LPN of lpnSpill or more does not fit; its entry is
	// lpnSpill and the LPN itself sits in FTL.spill (see setLPN).
	// Nothing reads an entry for a dead page, so neither construction
	// nor erase sweeps it — at fleet scale the FTLs provision megabytes
	// of it per replay, most never written.
	lpns     []uint32
	validCnt int
	writePtr int // next free page, PagesPerBlock when full
	erases   int
	isActive bool
	retired  bool // permanently out of service (program/erase failure)
}

// isLive reports whether page holds the current copy of its LPN.
func (bm *blockMeta) isLive(page int) bool { return bm.live[page>>6]&(1<<(page&63)) != 0 }

// kill invalidates a live page.
func (bm *blockMeta) kill(page int) {
	bm.live[page>>6] &^= 1 << (page & 63)
	bm.validCnt--
}

// lpnSpill marks a reverse-map entry whose LPN is too large for 32 bits
// and is kept in FTL.spill instead.
const lpnSpill = math.MaxUint32

type planeState struct {
	blocks    []blockMeta
	active    int   // block currently receiving writes
	freeQueue []int // erased blocks ready for allocation
}

// WearSink observes per-block erase wear as it happens. A failed erase
// still stresses the oxide — bm.erases advances before the block is
// retired — so the sink is told about both outcomes; lifetime-aware
// consumers (ssdsim's per-block stress state) count failed erases as
// wear even though no data was erased.
type WearSink interface {
	// BlockErased is called once per erase attempt on (plane, block).
	// failed reports that the erase failed and the block was retired.
	BlockErased(plane, block int, failed bool)
}

// FTL is a page-mapped translation layer. It is not safe for concurrent
// use; the simulator drives it from one goroutine.
type FTL struct {
	geo Geometry
	// map from LPN to physical page. Always present; when dense is
	// enabled it only holds LPNs at or above the dense bound.
	l2p map[int64]PPN
	// dense, when non-nil, maps LPNs in [0, len(dense)) to packed
	// physical pages biased by one (0 = unmapped): a slice load replaces
	// a map probe on the replay hot path. See SetLPNBound.
	dense     []uint64
	planes    []planeState
	nextPlane int
	// spill holds the LPN of every page whose reverse-map entry is
	// lpnSpill, keyed by pageKey. It stays nil until such an LPN is
	// written, so a trace whose LPNs fit in 32 bits pays nothing for it.
	spill map[int]int64

	// Stats
	HostWrites int64
	GCWrites   int64
	Erases     int64
	// BadBlocks counts blocks retired after a program or erase failure.
	BadBlocks int64

	// Faults optionally injects program/erase failures; nil means a
	// fault-free medium. Set it before issuing writes.
	Faults PEFaultModel

	// Obs, when non-nil, receives counter deltas on FlushObs; the write
	// path itself is untouched, so instrumentation is free per write.
	Obs *Metrics

	// Wear, when non-nil, observes every erase attempt (including failed
	// ones, which wear the oxide without freeing the block). Erases are
	// rare relative to page writes, so the hook costs nothing on the
	// write hot path.
	Wear WearSink
}

// gcThreshold is the free-block low-water mark per plane at which
// garbage collection runs.
const gcThreshold = 2

// New builds an FTL over the geometry.
func New(geo Geometry) (*FTL, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	f := &FTL{
		geo:    geo,
		l2p:    make(map[int64]PPN),
		planes: make([]planeState, geo.Planes()),
	}
	for p := range f.planes {
		ps := &f.planes[p]
		ps.blocks = make([]blockMeta, geo.BlocksPerPlane)
		// One backing array per plane for each of the bitmap (zero = no
		// page live) and the reverse map; blocks slice them without
		// touching them.
		words := (geo.PagesPerBlock + 63) / 64
		live := make([]uint64, geo.BlocksPerPlane*words)
		lpns := make([]uint32, geo.BlocksPerPlane*geo.PagesPerBlock)
		for b := range ps.blocks {
			bm := &ps.blocks[b]
			bm.live = live[b*words : (b+1)*words : (b+1)*words]
			bm.lpns = lpns[b*geo.PagesPerBlock : (b+1)*geo.PagesPerBlock : (b+1)*geo.PagesPerBlock]
			if b > 0 {
				ps.freeQueue = append(ps.freeQueue, b)
			}
		}
		ps.active = 0
		ps.blocks[0].isActive = true
	}
	return f, nil
}

// packedPlaneBits et al. fix the dense entry layout: plane<<40 |
// block<<20 | page, biased by one so a zeroed slice means "unmapped".
const (
	packedPageBits  = 20
	packedBlockBits = 20
	packedPlaneMax  = 1 << 23
)

func packPPN(p PPN) uint64 {
	return uint64(p.Plane)<<(packedPageBits+packedBlockBits) |
		uint64(p.Block)<<packedPageBits | uint64(p.Page)
}

func unpackPPN(v uint64) PPN {
	return PPN{
		Plane: int(v >> (packedPageBits + packedBlockBits)),
		Block: int(v >> packedPageBits & (1<<packedBlockBits - 1)),
		Page:  int(v & (1<<packedPageBits - 1)),
	}
}

// SetLPNBound enables the dense L2P path for LPNs in [0, maxLPN]: a
// packed-word slice indexed by LPN replaces the map probe on every
// translate, invalidate and remap. LPNs above the bound (or a bound the
// geometry cannot pack) silently stay on the map, so the bound is a
// performance hint, never a correctness constraint. Call it before the
// first write; enabling it mid-stream would strand existing map entries.
func (f *FTL) SetLPNBound(maxLPN int64) {
	const maxDenseEntries = 1 << 28 // 2 GiB of packed words
	if maxLPN < 0 || maxLPN+1 > maxDenseEntries || len(f.l2p) > 0 {
		return
	}
	if f.geo.PagesPerBlock > 1<<packedPageBits ||
		f.geo.BlocksPerPlane > 1<<packedBlockBits ||
		f.geo.Planes() > packedPlaneMax {
		return
	}
	f.dense = make([]uint64, maxLPN+1)
}

// l2pGet looks up an LPN in the dense slice or the overflow map.
func (f *FTL) l2pGet(lpn int64) (PPN, bool) {
	if uint64(lpn) < uint64(len(f.dense)) {
		v := f.dense[lpn]
		if v == 0 {
			return PPN{}, false
		}
		return unpackPPN(v - 1), true
	}
	p, ok := f.l2p[lpn]
	return p, ok
}

// l2pSet maps an LPN.
func (f *FTL) l2pSet(lpn int64, p PPN) {
	if uint64(lpn) < uint64(len(f.dense)) {
		f.dense[lpn] = packPPN(p) + 1
		return
	}
	f.l2p[lpn] = p
}

// Translate returns the physical page of an LPN.
func (f *FTL) Translate(lpn int64) (PPN, bool) {
	return f.l2pGet(lpn)
}

// WriteResult describes the physical work one host page write caused.
type WriteResult struct {
	// Target is where the host page landed.
	Target PPN
	// Migrations lists valid pages relocated by garbage collection or
	// bad-block retirement triggered by this write (source pages; each
	// also incurred a write).
	Migrations []PPN
	// ErasedBlocks counts blocks erased by GC during this write.
	ErasedBlocks int
	// RetiredBlocks counts blocks taken out of service during this write
	// after a program or erase failure.
	RetiredBlocks int
}

// Write maps (or remaps) an LPN, allocating the next page of the current
// plane's active block and running garbage collection if free space runs
// low. Planes are filled round-robin, which stripes sequential writes
// across channels exactly like SSDSim's dynamic allocation.
func (f *FTL) Write(lpn int64) (WriteResult, error) {
	var res WriteResult
	if err := f.WriteInto(lpn, &res); err != nil {
		return WriteResult{}, err
	}
	return res, nil
}

// WriteInto is Write with a caller-owned result: res is reset and filled
// in place, so a replay loop can reuse one WriteResult (and its
// Migrations capacity) across millions of writes instead of copying a
// fresh one out per page. An error other than a negative LPN (a plane
// out of space) can leave the mapping half updated; the FTL must not be
// written again after one.
func (f *FTL) WriteInto(lpn int64, res *WriteResult) error {
	res.Target = PPN{}
	res.Migrations = res.Migrations[:0]
	res.ErasedBlocks = 0
	res.RetiredBlocks = 0
	if lpn < 0 {
		return fmt.Errorf("ftl: negative LPN %d", lpn)
	}
	// Invalidate the old copy: the L2P map and the live pages are a
	// bijection (CheckInvariants), so the old page is live and holds
	// lpn, and clearing its bit is the whole invalidation.
	if old, ok := f.l2pGet(lpn); ok {
		f.planes[old.Plane].blocks[old.Block].kill(old.Page)
	}
	plane := f.nextPlane
	f.nextPlane++
	if f.nextPlane == len(f.planes) {
		f.nextPlane = 0
	}

	tgt, err := f.allocate(plane, lpn, res, true)
	if err != nil {
		return err
	}
	f.l2pSet(lpn, tgt)
	res.Target = tgt
	f.HostWrites++
	// Keep the free-block watermark: run GC until replenished or until it
	// stops making progress (all candidate victims fully valid).
	for len(f.planes[plane].freeQueue) < gcThreshold {
		progressed, err := f.collect(plane, res)
		if err != nil {
			return err
		}
		if !progressed {
			break
		}
	}
	return nil
}

// allocate takes the next free page in the plane's active block, rolling
// to a fresh block from the free queue when full. With checkFaults set it
// consults the fault model before committing the program; a failure
// retires the active block (relocating its contents) and retries on a
// fresh one. Relocation writes run with checkFaults off: their fault
// decision would be redrawn at the same key and loop forever, and real
// controllers treat the rescue copy of a dying block as must-succeed.
func (f *FTL) allocate(plane int, lpn int64, res *WriteResult, checkFaults bool) (PPN, error) {
	ps := &f.planes[plane]
	for {
		bm := &ps.blocks[ps.active]
		if bm.writePtr >= f.geo.PagesPerBlock {
			if len(ps.freeQueue) == 0 {
				return PPN{}, fmt.Errorf("ftl: plane %d out of space", plane)
			}
			bm.isActive = false
			ps.active = ps.freeQueue[0]
			ps.freeQueue = ps.freeQueue[1:]
			ps.blocks[ps.active].isActive = true
			bm = &ps.blocks[ps.active]
		}
		page := bm.writePtr
		if checkFaults && f.Faults != nil &&
			f.Faults.PageProgramFails(plane, ps.active, page, bm.erases) {
			if err := f.retireActive(plane, res); err != nil {
				return PPN{}, err
			}
			continue
		}
		bm.writePtr++
		if uint64(lpn) < lpnSpill && bm.lpns[page] != lpnSpill {
			bm.lpns[page] = uint32(lpn)
		} else {
			f.setLPN(bm, plane, ps.active, page, lpn)
		}
		bm.live[page>>6] |= 1 << (page & 63)
		bm.validCnt++
		return PPN{Plane: plane, Block: ps.active, Page: page}, nil
	}
}

// pageKey numbers a physical page across the whole device.
func (f *FTL) pageKey(plane, block, page int) int {
	return (plane*f.geo.BlocksPerPlane+block)*f.geo.PagesPerBlock + page
}

// setLPN writes the reverse-map entry of (plane, block, page) when the
// spill map is involved: an LPN of lpnSpill or more goes to the spill
// map under the page's key, and a page that held one drops its key when
// it is reprogrammed with a small LPN, so the map never outgrows the
// pages that hold a large LPN.
func (f *FTL) setLPN(bm *blockMeta, plane, block, page int, lpn int64) {
	key := f.pageKey(plane, block, page)
	if uint64(lpn) < lpnSpill {
		delete(f.spill, key)
		bm.lpns[page] = uint32(lpn)
		return
	}
	if f.spill == nil {
		f.spill = make(map[int]int64)
	}
	f.spill[key] = lpn
	bm.lpns[page] = lpnSpill
}

// lpnAt returns the LPN (plane, block, page) was last programmed with.
func (f *FTL) lpnAt(bm *blockMeta, plane, block, page int) int64 {
	if v := bm.lpns[page]; v != lpnSpill {
		return int64(v)
	}
	return f.spill[f.pageKey(plane, block, page)]
}

// retireActive takes the plane's active block out of service after a
// program failure: the block is marked bad, a fresh block becomes active,
// and the dying block's valid pages are relocated onto it (they remain
// readable — only further programs fail).
func (f *FTL) retireActive(plane int, res *WriteResult) error {
	ps := &f.planes[plane]
	victim := ps.active
	bm := &ps.blocks[victim]
	bm.isActive = false
	bm.retired = true
	f.BadBlocks++
	res.RetiredBlocks++
	if len(ps.freeQueue) == 0 {
		return fmt.Errorf("ftl: plane %d out of space retiring block %d", plane, victim)
	}
	ps.active = ps.freeQueue[0]
	ps.freeQueue = ps.freeQueue[1:]
	ps.blocks[ps.active].isActive = true
	return f.relocate(plane, victim, res, false)
}

// relocate moves every live page of (plane, victim) to the plane's
// active block, in ascending page order, recording each source page in
// res.Migrations. The victim is never the active block, so the
// allocations it makes cannot land on the pages it is reading.
func (f *FTL) relocate(plane, victim int, res *WriteResult, checkFaults bool) error {
	bm := &f.planes[plane].blocks[victim]
	for w := range bm.live {
		for word := bm.live[w]; word != 0; word &= word - 1 {
			page := w<<6 | bits.TrailingZeros64(word)
			lpn := f.lpnAt(bm, plane, victim, page)
			res.Migrations = append(res.Migrations,
				PPN{Plane: plane, Block: victim, Page: page})
			bm.kill(page)
			tgt, err := f.allocate(plane, lpn, res, checkFaults)
			if err != nil {
				return err
			}
			f.l2pSet(lpn, tgt)
			f.GCWrites++
		}
	}
	return nil
}

// collect performs one round of greedy garbage collection on the plane:
// it picks the fully-written block with the fewest valid pages, migrates
// them, and erases it. It reports whether it reclaimed any space
// (progressed = false when the best victim is fully valid, which means GC
// cannot help until the host invalidates more data).
func (f *FTL) collect(plane int, res *WriteResult) (progressed bool, err error) {
	ps := &f.planes[plane]
	victim := -1
	best := f.geo.PagesPerBlock + 1
	for b := range ps.blocks {
		bm := &ps.blocks[b]
		if bm.isActive || bm.retired || bm.writePtr < f.geo.PagesPerBlock {
			continue
		}
		if bm.validCnt < best {
			best = bm.validCnt
			victim = b
		}
	}
	if victim < 0 || best >= f.geo.PagesPerBlock {
		return false, nil
	}
	if err := f.relocate(plane, victim, res, true); err != nil {
		return false, err
	}
	bm := &ps.blocks[victim]
	// Erase. A failed erase wears the block without freeing it; the FTL
	// retires it on the spot (its pages were already migrated, so no data
	// is at risk) and the next collect round picks another victim.
	if f.Faults != nil && f.Faults.BlockEraseFails(plane, victim, bm.erases) {
		bm.erases++
		bm.retired = true
		f.BadBlocks++
		res.RetiredBlocks++
		if f.Wear != nil {
			f.Wear.BlockErased(plane, victim, true)
		}
		return true, nil
	}
	bm.writePtr = 0
	bm.validCnt = 0
	bm.erases++
	clear(bm.live) // already empty after relocate: an erased block has no live page
	f.Erases++
	res.ErasedBlocks++
	if f.Wear != nil {
		f.Wear.BlockErased(plane, victim, false)
	}
	ps.freeQueue = append(ps.freeQueue, victim)
	return true, nil
}

// CheckInvariants verifies that the L2P map (dense and overflow) and
// the live pages are a bijection: every L2P entry points at a live page
// whose reverse map holds that LPN, every live page's LPN translates
// back to that page, and the live pages number as many as the L2P
// entries. It also checks each block's valid count against its bitmap,
// that no page at or past the write pointer is live, that retired
// blocks hold nothing, and that the spill map holds exactly the pages
// whose 32-bit entry is lpnSpill, each with an LPN too large for 32
// bits. Tests call this.
func (f *FTL) CheckInvariants() error {
	entries := 0
	check := func(lpn int64, ppn PPN) error {
		entries++
		bm := &f.planes[ppn.Plane].blocks[ppn.Block]
		if held := f.lpnAt(bm, ppn.Plane, ppn.Block, ppn.Page); !bm.isLive(ppn.Page) || held != lpn {
			return fmt.Errorf("ftl: L2P %d -> %+v but page live=%v holds %d",
				lpn, ppn, bm.isLive(ppn.Page), held)
		}
		return nil
	}
	for lpn, ppn := range f.l2p {
		if err := check(lpn, ppn); err != nil {
			return err
		}
	}
	for lpn, v := range f.dense {
		if v == 0 {
			continue
		}
		if err := check(int64(lpn), unpackPPN(v-1)); err != nil {
			return err
		}
	}
	live, spilled := 0, 0
	for p := range f.planes {
		for b := range f.planes[p].blocks {
			bm := &f.planes[p].blocks[b]
			cnt := 0
			for page := range f.geo.PagesPerBlock {
				if bm.lpns[page] == lpnSpill {
					spilled++
					if lpn, ok := f.spill[f.pageKey(p, b, page)]; !ok || uint64(lpn) < lpnSpill {
						return fmt.Errorf("ftl: plane %d block %d page %d spills LPN %d (held %v)",
							p, b, page, lpn, ok)
					}
				}
				if !bm.isLive(page) {
					continue
				}
				cnt++
				if page >= bm.writePtr {
					return fmt.Errorf("ftl: plane %d block %d page %d live at or past write pointer %d",
						p, b, page, bm.writePtr)
				}
				want := PPN{Plane: p, Block: b, Page: page}
				held := f.lpnAt(bm, p, b, page)
				if got, ok := f.l2pGet(held); !ok || got != want {
					return fmt.Errorf("ftl: live page %+v holds LPN %d, which translates to %+v (mapped %v)",
						want, held, got, ok)
				}
			}
			if cnt != bm.validCnt {
				return fmt.Errorf("ftl: plane %d block %d valid count %d != %d",
					p, b, bm.validCnt, cnt)
			}
			if bm.retired && (bm.validCnt != 0 || bm.isActive) {
				return fmt.Errorf("ftl: plane %d block %d retired but validCnt=%d active=%v",
					p, b, bm.validCnt, bm.isActive)
			}
			live += cnt
		}
	}
	if live != entries {
		return fmt.Errorf("ftl: %d live pages but %d L2P entries", live, entries)
	}
	if spilled != len(f.spill) {
		return fmt.Errorf("ftl: %d spilled reverse-map entries but %d spill keys", spilled, len(f.spill))
	}
	return nil
}

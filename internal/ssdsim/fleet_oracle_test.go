package ssdsim_test

import (
	"context"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"sentinel3d/internal/ftl"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/retry"
	"sentinel3d/internal/serve"
	"sentinel3d/internal/ssdsim"
)

// oraclePolicies are serve's default policies plus one whose outcomes
// carry the fallback and uncorrectable flags and whose CSB pool is
// empty, so the oracle sees every outcome shape a pool can hold.
func oraclePolicies() map[string]ssdsim.RetrySampler {
	p := serve.DefaultSamplers()
	p["flagged"] = &ssdsim.EmpiricalSampler{PerPage: [][]ssdsim.RetryOutcome{
		{{Retries: 3, UsedFallback: true}, {Retries: 0}, {Retries: 5, AuxSenses: 2, Uncorrectable: true}},
		{},
		{{Retries: 1, AuxSenses: 1, UsedFallback: true, Uncorrectable: true}, {Retries: 6}},
	}}
	return p
}

// oracleConfig is a 2-channel TLC device small enough to build per
// fuzz input; its default premap (60%) leaves the top LPNs unmapped.
func oracleConfig(seed uint64, shards int, corrupt float64) ssdsim.FleetConfig {
	sim := ssdsim.DefaultConfig()
	sim.Geo = ftl.Geometry{Channels: 2, ChipsPerChan: 1, DiesPerChip: 1,
		PlanesPerDie: 2, BlocksPerPlane: 16, PagesPerBlock: 48}
	sim.Seed = seed
	return ssdsim.FleetConfig{Sim: sim, Shards: shards, Samplers: oraclePolicies(),
		CorruptRate: corrupt}
}

// poolFleet is the oracle's reference fleet: per-shard FTLs premapped
// like NewFleet's (LPNs ascending, each to the shard owning its
// 64-page granule), and reads answered straight from the policy pools.
type poolFleet struct {
	cfg  ssdsim.FleetConfig
	ftls []*ftl.FTL
}

func newPoolFleet(t *testing.T, cfg ssdsim.FleetConfig) *poolFleet {
	t.Helper()
	geo := cfg.Sim.Geo
	geo.Channels /= cfg.Shards
	r := &poolFleet{cfg: cfg}
	for s := 0; s < cfg.Shards; s++ {
		f, err := ftl.New(geo)
		if err != nil {
			t.Fatal(err)
		}
		r.ftls = append(r.ftls, f)
	}
	premap := int64(cfg.Sim.Geo.PagesTotal()) * 6 / 10
	for lpn := int64(0); lpn < premap; lpn++ {
		if _, err := r.ftls[r.shardOf(lpn)].Write(lpn); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func (r *poolFleet) shardOf(lpn int64) int { return int(lpn / 64 % int64(r.cfg.Shards)) }

// read is the serving contract written out: the read reports its first
// LPN's shard, and every page is looked up on the shard that owns the
// page's own granule, where it was premapped; an unmapped page costs
// the map lookup, and a mapped one reseeds the page's stream with
// Mix3(seed, lpn, salt), draws rng.Intn(len(pool)) (no draw from an
// empty pool, which yields the zero outcome), makes the corruption
// draw, applies the MaxRetries cut-off and is priced by pageCost.
func (r *poolFleet) read(read ssdsim.FleetRead) ssdsim.FleetResult {
	h := fnv.New64a()
	h.Write([]byte(read.Policy))
	salt := h.Sum64()
	pool := r.cfg.Samplers[read.Policy].(*ssdsim.EmpiricalSampler)
	shard := r.shardOf(read.LPN)
	res := ssdsim.FleetResult{Shard: shard}
	for p := 0; p < max(read.Pages, 1); p++ {
		lpn := read.LPN + int64(p)
		ppn, ok := r.ftls[r.shardOf(lpn)].Translate(lpn)
		if !ok {
			res.UnmappedPages++
			res.SimUS += retry.MapLookupUS
			res.Check ^= mathx.Mix3(uint64(lpn), salt, 0xdead)
			continue
		}
		rng := mathx.NewRand(mathx.Mix3(r.cfg.Sim.Seed, uint64(lpn), salt))
		pt := ppn.Page % r.cfg.Sim.Bits
		var out ssdsim.RetryOutcome
		if outs := pool.PerPage[pt]; len(outs) > 0 {
			out = outs[rng.Intn(len(outs))]
		}
		if r.cfg.CorruptRate > 0 && rng.Float64() < r.cfg.CorruptRate {
			out.Uncorrectable = true
		}
		if read.MaxRetries > 0 && out.Retries > read.MaxRetries {
			out.Retries = read.MaxRetries
			out.Uncorrectable = true
			res.FailFast = true
		}
		res.Retries += out.Retries
		res.AuxSenses += out.AuxSenses
		res.UsedFallback = res.UsedFallback || out.UsedFallback
		res.Uncorrectable = res.Uncorrectable || out.Uncorrectable
		die, ch := ssdsim.PageCost(pt, &out)
		res.SimUS += die + ch
		flags := uint64(0)
		if out.UsedFallback {
			flags |= 1
		}
		if out.Uncorrectable {
			flags |= 2
		}
		res.Check ^= mathx.Mix4(uint64(lpn), salt,
			uint64(out.Retries)<<8|uint64(out.AuxSenses)<<2|flags, 0xf1ee7)
	}
	return res
}

// FuzzFleetMatchesPool is a differential oracle for the serving Fleet:
// over the LPN, page count, policy, MaxRetries in {0..3}, CorruptRate
// in [0,1] and shard count, every FleetResult must equal the pool
// reference above, SimUS bit for bit — including reads the cut-off
// shortens and reads corruption fails, whose cost no other test pins.
// The seed corpus runs as a test: every policy at every cut-off and at
// corruption 0, 0.3 and 1, on mapped, unmapped and granule-crossing
// reads.
func FuzzFleetMatchesPool(f *testing.F) {
	names := policyNames()
	for pol := range names {
		for maxRetries := uint8(0); maxRetries < 4; maxRetries++ {
			for i, corrupt := range []uint16{0, 19661, math.MaxUint16} {
				lpn := uint16((pol*211 + int(maxRetries)*37 + i*401) % 1800) // premapped
				f.Add(uint64(pol+1), lpn, uint8(1+i*3), uint8(pol), maxRetries, corrupt, uint8(i))
			}
		}
	}
	f.Add(uint64(9), uint16(60), uint8(9), uint8(0), uint8(1), uint16(0), uint8(1))     // crosses a granule
	f.Add(uint64(3), uint16(1840), uint8(8), uint8(1), uint8(2), uint16(0), uint8(0))   // runs off the premap
	f.Add(uint64(5), uint16(3071), uint8(0), uint8(2), uint8(0), uint16(100), uint8(1)) // Pages 0 reads one page
	f.Fuzz(func(t *testing.T, seed uint64, lpnIn uint16, pages, polIn, maxIn uint8, corruptIn uint16, shardIn uint8) {
		cfg := oracleConfig(seed, int(shardIn%2)+1, float64(corruptIn)/math.MaxUint16)
		read := ssdsim.FleetRead{
			LPN:        int64(lpnIn) % int64(cfg.Sim.Geo.PagesTotal()),
			Pages:      int(pages % 16),
			Policy:     names[int(polIn)%len(names)],
			MaxRetries: int(maxIn % 4),
		}
		fl, err := ssdsim.NewFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer fl.Close()
		got, err := fl.Submit(context.Background(), read)
		if err != nil {
			t.Fatal(err)
		}
		got.QueueWait = 0 // wall clock, outside the contract
		want := newPoolFleet(t, cfg).read(read)
		if math.Float64bits(got.SimUS) != math.Float64bits(want.SimUS) || got != want {
			t.Fatalf("%+v at corrupt rate %g, %d shards:\nfleet %+v\npool  %+v",
				read, cfg.CorruptRate, cfg.Shards, got, want)
		}
	})
}

// policyNames lists the oracle's policies in a fixed order.
func policyNames() []string {
	var names []string
	for name := range oraclePolicies() {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

package ssdsim

import "math/bits"

// stripeMap splits one logical address space across a fleet of devices.
// In striped (RAID-0) mode, granules of stripeGranule pages round-robin
// across devices and each device compacts its granules into a dense
// local address space:
//
//	dev(lpn)   = (lpn / G) % D
//	local(lpn) = (lpn / (G*D)) * G  +  lpn % G
//
// which is a bijection between global LPNs and (device, local) pairs —
// global() is its inverse, and FuzzStripeMap proves the round trip. In
// replicated mode every device holds the full address space: local
// addresses equal global ones, reads round-robin by granule, and the
// engine fans writes out to every device.
//
// A 1-device map is the identity in both modes, which is how a fleet
// engine with Devices=1 reproduces the single-device engine bit for
// bit. Negative LPNs (malformed traces) route to device 0 with their
// address unchanged, mirroring shardRouter's handling.
//
// The engine routes whole requests by their first LPN and services the
// request's pages contiguously in device-local space, so a request that
// crosses a granule boundary reads the device's own next granule rather
// than splitting across devices — the same first-LPN aliasing the shard
// router has always applied (see shardRouter).
type stripeMap struct {
	devices   int64
	replicate bool
	// dShift is log2(devices) when devices is a power of two, else -1;
	// the hot route path then runs on shifts and masks instead of 64-bit
	// divisions.
	dShift int8
}

// stripeGranule is the striping unit, fixed at shardGranule: 64 pages =
// 256 KiB keeps mean-sized requests inside one device while
// interleaving finely enough to balance the fleet on hot-range traces.
// Being a power of two, it splits an LPN with a shift and a mask.
const stripeGranule = shardGranule

// stripeBoundSlack pads localBound for the whole-request routing above:
// a request whose first LPN sits at the end of the global space can run
// its pages past the last granule's local image.
const stripeBoundSlack = 64

func pow2Shift(v int64) int8 {
	if v > 0 && v&(v-1) == 0 {
		return int8(bits.TrailingZeros64(uint64(v)))
	}
	return -1
}

func newStripeMap(devices int, replicate bool) stripeMap {
	return stripeMap{
		devices:   int64(devices),
		replicate: replicate,
		dShift:    pow2Shift(int64(devices)),
	}
}

// route maps a global LPN to its owning device and device-local LPN.
func (m stripeMap) route(lpn int64) (int, int64) {
	if m.devices == 1 || lpn < 0 {
		return 0, lpn
	}
	g, off := lpn>>shardGranuleShift, lpn&(stripeGranule-1)
	var dev, dg int64
	if m.dShift >= 0 {
		dev, dg = g&(m.devices-1), g>>uint(m.dShift)
	} else {
		dev, dg = g%m.devices, g/m.devices
	}
	if m.replicate {
		return int(dev), lpn
	}
	return int(dev), dg*stripeGranule + off
}

// global inverts route for non-negative local LPNs: it returns the
// global LPN that device dev's local address came from.
func (m stripeMap) global(dev int, local int64) int64 {
	if m.devices == 1 || m.replicate || local < 0 {
		return local
	}
	g, off := local>>shardGranuleShift, local&(stripeGranule-1)
	return (g*m.devices+int64(dev))*stripeGranule + off
}

// localBound converts a global LPN bound into a per-device one: the
// highest local address any device can see for global LPNs in
// [0, bound], plus slack for whole-request granule overrun. Replicated
// fleets keep global addresses, so the bound passes through.
func (m stripeMap) localBound(bound int64) int64 {
	if bound <= 0 || m.devices == 1 || m.replicate {
		return bound
	}
	return (bound/(stripeGranule*m.devices))*stripeGranule + stripeGranule - 1 + stripeBoundSlack
}

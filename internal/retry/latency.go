// Package retry implements the read path of the flash controller: issue a
// page read, check ECC, and — on failure — choose the next voltage
// offsets. Interchangeable policies cover the paper's comparisons and
// the adaptive follow-ons:
//
//   - DefaultTable: the "current flash" baseline that walks a vendor-style
//     static retry table;
//   - AR2: the same table walk with pipelined retry steps;
//   - Sentinel: the paper's contribution — inference from sentinel-cell
//     errors, then state-change calibration;
//   - WarmStart: a first shot at read-only start offsets,
//     recovered by the table walk or by sentinel inference;
//   - Fallback: Sentinel guarded by the static table on chips whose
//     sentinel cells are corrupt.
//
// The controller accounts latency with an SSDSim-style model where sensing
// cost is proportional to the number of applied read voltages, so an extra
// sentinel (LSB) read is far cheaper than a full MSB retry, exactly as the
// paper argues in Section III-B2.
package retry

// Device timing in microseconds: the one SSDSim-style latency model the
// controller, the replay simulator and the serving fleet share. It
// mirrors 3D TLC/QLC datasheet-class timings: an LSB read ~60us, an MSB
// read ~130us (TLC) / ~160us (QLC).
const (
	// SenseBaseUS is the fixed array-access cost of any read operation.
	SenseBaseUS float64 = 25
	// SensePerLevelUS is the additional cost per applied read voltage.
	SensePerLevelUS float64 = 12
	// TransferUS is the page transfer time to the controller.
	TransferUS float64 = 20
	// ECCDecodeUS is the decode time per page.
	ECCDecodeUS float64 = 8
	// MapLookupUS is the controller-side cost of resolving a logical
	// page against the mapping table without touching flash. It is the
	// full service time of a read that hits a never-written LPN (the
	// device returns zeros straight from the FTL), so it involves no die
	// or channel occupancy.
	MapLookupUS float64 = 5
)

// PageRead returns the latency of one full page read attempt that applies
// nLevels read voltages, including transfer and decode.
func PageRead(nLevels int) float64 {
	return SenseBaseUS + float64(float64(nLevels)*SensePerLevelUS) + TransferUS + ECCDecodeUS
}

// StepLatency returns the latency attributed to one read attempt under
// either step model. overlap=false is the classic serial model and
// equals PageRead exactly — every attempt pays sense, transfer and
// decode back to back. overlap=true is the AR²/PR²-style pipelined
// model: the attempt's sensing was launched while the previous
// attempt's ECC decode was still running, so the decode is hidden
// behind the predecessor (it is shorter than any sense).
func StepLatency(nLevels int, overlap bool) float64 {
	serial := PageRead(nLevels)
	if !overlap {
		return serial
	}
	return serial - ECCDecodeUS
}

// AuxSense returns the latency of a one-voltage auxiliary read (the
// sentinel-voltage LSB read used for inference and calibration); the data
// is transferred but not ECC-decoded.
func AuxSense() float64 {
	return SenseBaseUS + SensePerLevelUS + TransferUS
}

// Package trace provides block-level I/O traces for the SSD simulator: a
// streaming parser for MSR-Cambridge-format CSV traces and synthetic
// generators for eight workloads whose shapes (read ratio, arrival burstiness, request
// sizes, access locality) follow the published summary statistics of the
// MSR volumes used in the paper's Figure 14.
//
// The real MSR traces are not redistributable, so the generators stand in
// for them; what Figure 14 measures is *relative* read-latency reduction,
// which depends on read intensity and arrival structure rather than the
// exact block addresses.
package trace

// Op is the request type.
type Op int

const (
	// Read is a host read request.
	Read Op = iota
	// Write is a host write request.
	Write
)

// String implements fmt.Stringer.
func (o Op) String() string {
	if o == Read {
		return "R"
	}
	return "W"
}

// Request is one block-level I/O.
type Request struct {
	// ArriveUS is the arrival time in microseconds from trace start.
	ArriveUS float64
	// Op is Read or Write.
	Op Op
	// LPN is the first logical page (4 KiB units) touched.
	LPN int64
	// Pages is the number of consecutive logical pages.
	Pages int
}

// PageBytes is the logical page size used for LPN accounting.
const PageBytes = 4096

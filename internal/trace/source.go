package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
)

// Source is a pull iterator over a trace: Next returns requests one at a
// time, in trace order, so multi-million-request traces stream through
// the replay engine instead of being materialized as a []Request.
//
// Ordering contract: a Source yields requests in the order they should
// be replayed. The built-in sources are deterministic — two sources
// constructed with the same arguments yield identical streams — which is
// what lets the engine make a preconditioning pass and a replay pass
// over two independently opened instances of the same trace.
type Source interface {
	// Next returns the next request. ok is false when the trace is
	// exhausted (req is then the zero Request); err reports generation
	// or parse failures, after which the source is dead.
	Next() (req Request, ok bool, err error)
}

// Opener produces a fresh Source positioned at the start of a trace.
// The replay engine opens a trace twice — once to precondition, once to
// replay — so openers must yield identical streams on every call (true
// of all the built-in sources).
type Opener func() (Source, error)

// SliceOpener returns an Opener over a materialized trace.
func SliceOpener(reqs []Request) Opener {
	return func() (Source, error) { return Sliced(reqs), nil }
}

// GeneratorOpener returns an Opener that regenerates the synthetic
// workload from scratch on every call.
func GeneratorOpener(spec WorkloadSpec, n int, seed uint64) Opener {
	return func() (Source, error) { return NewGenerator(spec, n, seed) }
}

// FileOpener returns an Opener that re-reads the MSR CSV trace at path.
// Each returned source owns its file handle; the engine closes sources
// that implement io.Closer.
func FileOpener(path string) Opener {
	return func() (Source, error) { return OpenMSR(path) }
}

// SliceSource adapts a materialized []Request to the Source interface.
type SliceSource struct {
	reqs []Request
	i    int
}

// Sliced returns a Source that yields reqs in order. The slice is not
// copied; callers must not mutate it while the source is in use.
func Sliced(reqs []Request) *SliceSource { return &SliceSource{reqs: reqs} }

// Next implements Source.
func (s *SliceSource) Next() (Request, bool, error) {
	if s.i >= len(s.reqs) {
		return Request{}, false, nil
	}
	r := s.reqs[s.i]
	s.i++
	return r, true, nil
}

// Collect drains src into a slice: the inverse of Sliced, which tests
// use to compare a streamed source against its materialized trace.
func Collect(src Source) ([]Request, error) {
	var out []Request
	for {
		r, ok, err := src.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, r)
	}
}

// BlockRequests is the block size ReadBlock's callers use: 512
// requests, 16 KiB, still in L1 when the loop that consumes the block
// reads it back.
const BlockRequests = 512

// ReadBlock fills dst with src's next requests and returns how many it
// read; fewer than len(dst) means the trace ended (or err is set). A
// Generator draws the whole block in one call, span-only when spans is
// set (for a caller that reads only LPN and Pages: it skips the
// arrival's logarithm). The binary format's concrete Next inlines into
// the fill loop, where any other source's interface call cannot; both
// fill whole requests whatever spans says.
func ReadBlock(src Source, dst []Request, spans bool) (int, error) {
	switch s := src.(type) {
	case *Generator:
		if spans {
			return s.NextSpans(dst), nil
		}
		return s.NextBlock(dst), nil
	case *BinarySource:
		for i := range dst {
			r, ok, err := s.Next()
			if err != nil || !ok {
				return i, err
			}
			dst[i] = r
		}
	default:
		for i := range dst {
			r, ok, err := s.Next()
			if err != nil || !ok {
				return i, err
			}
			dst[i] = r
		}
	}
	return len(dst), nil
}

// MSRSource streams an MSR Cambridge CSV trace
//
//	Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//
// one request per line, without slurping the file. Timestamps are
// Windows filetime (100ns ticks) and are rebased so the first request
// arrives at t=0; Offset and Size are bytes. Requests are yielded in
// file order, which is timestamp order on the published MSR volumes. A
// stream cannot be sorted without materializing it, so on a trace with
// out-of-order timestamps each arrival is clamped to the running
// maximum: replay order is file order, time never runs backwards, and
// Reordered counts the records whose timestamps did.
type MSRSource struct {
	sc      *bufio.Scanner
	closer  io.Closer
	line    int
	started bool
	t0      int64
	lastUS  float64
	// reordered counts records whose raw timestamp preceded an earlier
	// record's; their arrivals were clamped to the running maximum.
	reordered int64
	err       error
}

// NewMSRSource returns a streaming parser over r. If r implements
// io.Closer, Close forwards to it.
func NewMSRSource(r io.Reader) *MSRSource {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	m := &MSRSource{sc: sc}
	if c, ok := r.(io.Closer); ok {
		m.closer = c
	}
	return m
}

// OpenMSR opens path as a streaming MSR trace; the caller owns Close.
func OpenMSR(path string) (*MSRSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return NewMSRSource(f), nil
}

// Close releases the underlying reader when it is closable.
func (m *MSRSource) Close() error {
	if m.closer == nil {
		return nil
	}
	err := m.closer.Close()
	m.closer = nil
	return err
}

// Next implements Source. Blank and comment lines are skipped.
// Arrivals are rebased against the first record and clamped to the
// running maximum, so a record whose raw timestamp runs backwards
// (including one earlier than the first record's) never injects a
// negative or time-travelling arrival into the simulator; Reordered
// reports how many records were clamped.
func (m *MSRSource) Next() (Request, bool, error) {
	if m.err != nil {
		return Request{}, false, m.err
	}
	for m.sc.Scan() {
		m.line++
		// Parse straight out of the scanner's buffer: the streaming path
		// allocates nothing per line, which matters at replay scale.
		text := bytes.TrimSpace(m.sc.Bytes())
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		req, ts, err := parseMSRBytes(text, m.line)
		if err != nil {
			m.err = err
			return Request{}, false, err
		}
		if !m.started {
			m.started = true
			m.t0 = ts
		}
		us := float64(ts-m.t0) / 10.0 // 100ns ticks -> µs
		if us < m.lastUS {
			us = m.lastUS
			m.reordered++
		} else {
			m.lastUS = us
		}
		req.ArriveUS = us
		return req, true, nil
	}
	if err := m.sc.Err(); err != nil {
		m.err = err
		return Request{}, false, err
	}
	return Request{}, false, nil
}

// Reordered returns the number of records yielded so far whose raw
// timestamp preceded an earlier record's. The replay engine surfaces
// this in its Report so a trace that is not timestamp-sorted is
// visible rather than silent.
func (m *MSRSource) Reordered() int64 { return m.reordered }

// parseMSRBytes parses one CSV record, returning the request with its
// raw timestamp (Next rebases arrivals against the first one seen).
// Fields are located by comma scan and integers parsed in place, so the
// streaming MSR source costs no heap traffic per record.
func parseMSRBytes(text []byte, line int) (Request, int64, error) {
	var f [6][]byte
	rest := text
	for i := 0; i < 6; i++ {
		j := bytes.IndexByte(rest, ',')
		if j < 0 {
			if i < 5 {
				return Request{}, 0, fmt.Errorf("trace: line %d: %d fields, want >= 6",
					line, bytes.Count(text, []byte{','})+1)
			}
			f[i] = rest
			break
		}
		f[i] = rest[:j]
		rest = rest[j+1:]
	}
	ts, err := parseInt64(f[0])
	if err != nil {
		return Request{}, 0, fmt.Errorf("trace: line %d: bad timestamp: %w", line, err)
	}
	var op Op
	switch {
	case asciiFoldEqual(bytes.TrimSpace(f[3]), "read"):
		op = Read
	case asciiFoldEqual(bytes.TrimSpace(f[3]), "write"):
		op = Write
	default:
		return Request{}, 0, fmt.Errorf("trace: line %d: bad type %q", line, f[3])
	}
	off, err := parseInt64(f[4])
	if err != nil {
		return Request{}, 0, fmt.Errorf("trace: line %d: bad offset: %w", line, err)
	}
	size, err := parseInt64(f[5])
	if err != nil {
		return Request{}, 0, fmt.Errorf("trace: line %d: bad size: %w", line, err)
	}
	pages := int((off%PageBytes + size + PageBytes - 1) / PageBytes)
	if pages < 1 {
		pages = 1
	}
	return Request{Op: op, LPN: off / PageBytes, Pages: pages}, ts, nil
}

// asciiFoldEqual reports whether b equals the lower-case ASCII word
// under ASCII case folding, without allocating.
func asciiFoldEqual(b []byte, word string) bool {
	if len(b) != len(word) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != word[i] {
			return false
		}
	}
	return true
}

// parseInt64 parses a base-10 signed integer with strconv.ParseInt's
// base-10 semantics (optional sign, digits only, overflow rejected)
// without converting the bytes to a string.
func parseInt64(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("empty number")
	}
	neg := false
	i := 0
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		i++
	}
	if i == len(b) {
		return 0, fmt.Errorf("bare sign %q", b)
	}
	var u uint64
	const cutoff = uint64(1) << 63 // |math.MinInt64|
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bad digit in %q", b)
		}
		d := uint64(c - '0')
		if u > (cutoff-d)/10 {
			return 0, fmt.Errorf("value out of range: %q", b)
		}
		u = u*10 + d
	}
	if neg {
		return -int64(u), nil
	}
	if u >= cutoff {
		return 0, fmt.Errorf("value out of range: %q", b)
	}
	return int64(u), nil
}

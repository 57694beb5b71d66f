package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Binary trace format: a fixed 24-byte header followed by fixed 24-byte
// little-endian records, decodable in place with no per-record
// allocation. The header carries the record count and the highest LPN
// any record touches (LPN + Pages - 1), so a consumer can size dense
// address-translation state before reading a single record.
//
//	header:  magic "S3DT" | version uint16 | reserved uint16
//	         | count int64 | maxLPN int64
//	record:  arriveUS float64 | lpn int64 | pages uint32 | op uint8 | pad[3]
//
// The format exists for replay speed: re-decoding a CSV trace or
// re-running a synthetic generator costs hundreds of nanoseconds per
// request, while a binary record decodes in a handful — which is what
// lets the fleet replay engine spend its time simulating flash instead
// of parsing.

// binaryMagic identifies a binary trace ("S3DT" little-endian).
const binaryMagic = uint32('S' | '3'<<8 | 'D'<<16 | 'T'<<24)

// binaryVersion is the current format revision.
const binaryVersion = 1

// binaryHeaderBytes and binaryRecordBytes fix the layout sizes.
const (
	binaryHeaderBytes = 24
	binaryRecordBytes = 24
)

// EncodeBinarySource drains src into the binary format without
// materializing a []Request. A source that reports its length (Generator,
// BinarySource) gets an exactly sized buffer, so a multi-million-request
// encode writes each record once, in place, instead of re-copying as it
// grows.
//
// A record the format cannot carry faithfully fails the encode with an
// error naming its index: one BinarySource.Next would reject (see
// recordFault), or one with more pages than the 32-bit pages field holds.
func EncodeBinarySource(src Source) ([]byte, error) {
	size := 1 << 16
	if l, ok := src.(interface{ Len() int }); ok {
		size = binaryHeaderBytes + l.Len()*binaryRecordBytes
	}
	buf := make([]byte, binaryHeaderBytes, size)
	var maxLPN int64 = -1
	count := int64(0)
	for {
		r, ok, err := src.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if !(r.ArriveUS >= 0 && r.ArriveUS <= math.MaxFloat64 && r.Pages > 0 &&
			r.Pages <= math.MaxInt32 && r.Op >= Read && r.Op <= Write) {
			what := recordFault(r)
			if what == "" {
				what = fmt.Sprintf("%d pages overflow the 32-bit pages field", r.Pages)
			}
			return nil, fmt.Errorf("trace: encoding record %d: %s", count, what)
		}
		n := len(buf)
		if cap(buf)-n < binaryRecordBytes {
			buf = slices.Grow(buf, binaryRecordBytes)
		}
		buf = buf[:n+binaryRecordBytes]
		putBinaryRecord(buf[n:], &r)
		if last := r.LPN + int64(r.Pages) - 1; last > maxLPN {
			maxLPN = last
		}
		count++
	}
	putBinaryHeader(buf, count, maxLPN)
	return buf, nil
}

func putBinaryHeader(buf []byte, count, maxLPN int64) {
	binary.LittleEndian.PutUint32(buf[0:4], binaryMagic)
	binary.LittleEndian.PutUint16(buf[4:6], binaryVersion)
	binary.LittleEndian.PutUint16(buf[6:8], 0)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(count))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(maxLPN))
}

// putBinaryRecord writes r into the record-sized rec, padding included.
func putBinaryRecord(rec []byte, r *Request) {
	rec = rec[:binaryRecordBytes]
	binary.LittleEndian.PutUint64(rec[0:8], math.Float64bits(r.ArriveUS))
	binary.LittleEndian.PutUint64(rec[8:16], uint64(r.LPN))
	binary.LittleEndian.PutUint32(rec[16:20], uint32(r.Pages))
	rec[20], rec[21], rec[22], rec[23] = byte(r.Op), 0, 0, 0
}

// BinarySource decodes a binary trace in place: Next reads each record
// straight out of the backing byte slice, so replaying a pre-encoded
// trace allocates nothing per request.
type BinarySource struct {
	data   []byte // the records not yet read, header and trailing bytes stripped
	count  int64
	maxLPN int64
}

// NewBinarySource validates the header and returns a source over the
// encoded trace. The slice is not copied; callers must not mutate it
// while the source is in use.
func NewBinarySource(data []byte) (*BinarySource, error) {
	if len(data) < binaryHeaderBytes {
		return nil, fmt.Errorf("trace: binary trace truncated: %d header bytes, want %d",
			len(data), binaryHeaderBytes)
	}
	if m := binary.LittleEndian.Uint32(data[0:4]); m != binaryMagic {
		return nil, fmt.Errorf("trace: bad binary trace magic %#x", m)
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != binaryVersion {
		return nil, fmt.Errorf("trace: binary trace version %d, want %d", v, binaryVersion)
	}
	count := int64(binary.LittleEndian.Uint64(data[8:16]))
	maxLPN := int64(binary.LittleEndian.Uint64(data[16:24]))
	if count < 0 {
		return nil, fmt.Errorf("trace: negative binary trace count %d", count)
	}
	body := data[binaryHeaderBytes:]
	// Compare record counts, not byte counts: count*binaryRecordBytes
	// overflows for a header claiming more than 2^63/24 records.
	if have := int64(len(body) / binaryRecordBytes); have < count {
		return nil, fmt.Errorf("trace: binary trace truncated: %d whole records, header claims %d",
			have, count)
	}
	return &BinarySource{data: body[:count*binaryRecordBytes], count: count, maxLPN: maxLPN}, nil
}

// BinaryOpener returns an Opener that re-decodes the same encoded trace
// on every call (the validation runs once up front so each open is just
// a cursor reset).
func BinaryOpener(data []byte) (Opener, error) {
	if _, err := NewBinarySource(data); err != nil {
		return nil, err
	}
	return func() (Source, error) { return NewBinarySource(data) }, nil
}

// Len returns the total number of records.
func (b *BinarySource) Len() int { return int(b.count) }

// MaxLPN returns the highest logical page any record touches, or -1 for
// an empty trace. The replay engine uses it to size dense FTL mapping
// state ahead of the first request.
func (b *BinarySource) MaxLPN() int64 { return b.maxLPN }

// Next implements Source. A record that no other source could yield —
// an arrival that is negative or not finite, fewer than one page, an op
// other than Read or Write — fails the trace with an error naming the
// record's index, and the source stays on that record.
//
// Next is kept within the compiler's inlining budget: the replay engine
// calls it once per request per pass, and a call costs more than the
// decode. That is why the check is one condition with a single early
// return and why the error is the source itself (see badRecordError).
func (b *BinarySource) Next() (r Request, ok bool, err error) {
	rec := b.data
	if len(rec) < binaryRecordBytes {
		return
	}
	r = Request{
		ArriveUS: math.Float64frombits(binary.LittleEndian.Uint64(rec)),
		LPN:      int64(binary.LittleEndian.Uint64(rec[8:])),
		Pages:    int(int32(binary.LittleEndian.Uint32(rec[16:]))),
		Op:       Op(rec[20]),
	}
	// NaN fails both arrival comparisons, +Inf the second.
	if r.ArriveUS >= 0 && r.ArriveUS <= math.MaxFloat64 && r.Pages > 0 && r.Op <= Write {
		b.data = rec[binaryRecordBytes:]
		return r, true, nil
	}
	return Request{}, false, (*badRecordError)(b)
}

// badRecordError is a BinarySource stopped on a record it rejects. A
// stopped source never advances, so the message, built only when read,
// always describes the record Next rejected.
type badRecordError BinarySource

func (e *badRecordError) Error() string {
	b := (*BinarySource)(e)
	r := Request{
		ArriveUS: math.Float64frombits(binary.LittleEndian.Uint64(b.data)),
		Pages:    int(int32(binary.LittleEndian.Uint32(b.data[16:]))),
		Op:       Op(b.data[20]),
	}
	index := b.count - int64(len(b.data)/binaryRecordBytes)
	return fmt.Sprintf("trace: binary record %d: %s", index, recordFault(r))
}

// recordFault describes why a binary trace cannot hold r — an arrival
// that is negative or not finite, fewer than one page, an op other than
// Read or Write — or returns "" when it can.
func recordFault(r Request) string {
	switch {
	case !(r.ArriveUS >= 0 && r.ArriveUS <= math.MaxFloat64):
		return fmt.Sprintf("arrival %g µs is negative or not finite", r.ArriveUS)
	case r.Pages < 1:
		return fmt.Sprintf("%d pages, want at least 1", r.Pages)
	case r.Op < Read || r.Op > Write:
		return fmt.Sprintf("op %d is neither read (%d) nor write (%d)", int(r.Op), Read, Write)
	}
	return ""
}

package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Binary trace format: a fixed 24-byte header followed by fixed 16-byte
// little-endian records, decodable in place with no per-record
// allocation. The header carries the record count and the highest LPN
// any record touches (LPN + Pages - 1), so a consumer can size dense
// address-translation state before reading a single record.
//
//	header:  magic "S3DT" | version uint16 | reserved uint16
//	         | count int64 | maxLPN int64
//	record:  arriveUS float64 | op<<63 | (pages-1)<<40 | lpn  (uint64)
//
// The record's second word packs the LPN into its low 40 bits (LPNs up
// to 2^40-1, 4 PiB of 4 KiB pages), the page count less one into the
// next 23 (1 to 2^23 pages) and the op into the top bit. Every bit
// pattern of that word is a valid request, so the decoder checks only
// the arrival and the encoder refuses anything the word cannot carry.
// The arrival keeps all 8 bytes so it round-trips bit for bit; a
// 12-byte record would leave the packed word about 26 bits of LPN.
//
// The format exists for replay speed: re-decoding a CSV trace or
// re-running a synthetic generator costs hundreds of nanoseconds per
// request, while a binary record decodes in a handful — which is what
// lets the fleet replay engine spend its time simulating flash instead
// of parsing.

// binaryMagic identifies a binary trace ("S3DT" little-endian).
const binaryMagic = uint32('S' | '3'<<8 | 'D'<<16 | 'T'<<24)

// binaryVersion is the layout revision; NewBinarySource refuses any
// other.
const binaryVersion = 2

// binaryHeaderBytes and binaryRecordBytes fix the layout sizes.
const (
	binaryHeaderBytes = 24
	binaryRecordBytes = 16
)

// The packed word's fields: LPN in bits 0-39, pages-1 in bits 40-62,
// op in bit 63.
const (
	binaryLPNBits   = 40
	binaryPagesBits = 23
	binaryOpShift   = binaryLPNBits + binaryPagesBits

	binaryMaxLPN   = 1<<binaryLPNBits - 1 // the largest first LPN a record carries
	binaryMaxPages = 1 << binaryPagesBits // the largest page count a record carries
)

// binaryPresizeBytes caps the buffer EncodeBinarySource reserves from a
// source's reported length; a longer trace grows past it as it encodes.
const binaryPresizeBytes = 1 << 30

// EncodeBinarySource drains src into the binary format without
// materializing a []Request. A source that reports its length (Generator,
// BinarySource) gets an exactly sized buffer, so a multi-million-request
// encode writes each record once, in place, instead of re-copying as it
// grows. A length that would need more than binaryPresizeBytes (or
// overflow) is not trusted: the buffer then starts small and grows. The
// source is read in blocks (ReadBlock), so a Generator draws a block per
// call.
//
// A record the format cannot carry fails the encode with an error naming
// its index (see recordFault), so every trace it writes decodes in full.
func EncodeBinarySource(src Source) ([]byte, error) {
	size := 1 << 16
	if l, ok := src.(interface{ Len() int }); ok {
		if n := l.Len(); n >= 0 && n <= (binaryPresizeBytes-binaryHeaderBytes)/binaryRecordBytes {
			size = binaryHeaderBytes + n*binaryRecordBytes
		}
	}
	buf := make([]byte, binaryHeaderBytes, size)
	var maxLPN int64 = -1
	count := int64(0)
	blk := make([]Request, BlockRequests)
	for k := len(blk); k == len(blk); {
		var err error
		if k, err = ReadBlock(src, blk, false); err != nil {
			return nil, err
		}
		for i := range blk[:k] {
			r := &blk[i]
			// recordFault's ranges as one test, so a good record makes no call.
			if !(r.ArriveUS >= 0 && r.ArriveUS <= math.MaxFloat64 && uint64(r.LPN) <= binaryMaxLPN &&
				uint(r.Pages-1) < binaryMaxPages && uint(r.Op) <= uint(Write)) {
				return nil, fmt.Errorf("trace: encoding record %d: %s", count, recordFault(*r))
			}
			n := len(buf)
			if cap(buf)-n < binaryRecordBytes {
				buf = slices.Grow(buf, binaryRecordBytes)
			}
			buf = buf[:n+binaryRecordBytes]
			putBinaryRecord(buf[n:], r)
			if last := r.LPN + int64(r.Pages) - 1; last > maxLPN {
				maxLPN = last
			}
			count++
		}
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

// putBinaryRecord writes r, which recordFault accepts, into the
// record-sized rec.
func putBinaryRecord(rec []byte, r *Request) {
	rec = rec[:binaryRecordBytes]
	binary.LittleEndian.PutUint64(rec[0:8], math.Float64bits(r.ArriveUS))
	binary.LittleEndian.PutUint64(rec[8:16],
		uint64(r.Op)<<binaryOpShift|uint64(r.Pages-1)<<binaryLPNBits|uint64(r.LPN))
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
	// overflows for a header claiming more than 2^63/16 records.
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

// Next implements Source. A record whose arrival is negative or not
// finite, the only fault a record can hold, fails the trace with an
// error naming the record's index, and the source stays on that record.
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
	w := binary.LittleEndian.Uint64(rec[8:])
	r = Request{
		ArriveUS: math.Float64frombits(binary.LittleEndian.Uint64(rec)),
		LPN:      int64(w & binaryMaxLPN),
		Pages:    int(w>>binaryLPNBits&(binaryMaxPages-1)) + 1,
		Op:       Op(w >> binaryOpShift),
	}
	// NaN fails both arrival comparisons, +Inf the second.
	if r.ArriveUS >= 0 && r.ArriveUS <= math.MaxFloat64 {
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
	arrive := math.Float64frombits(binary.LittleEndian.Uint64(b.data))
	index := b.count - int64(len(b.data)/binaryRecordBytes)
	return fmt.Sprintf("trace: binary record %d: %s", index, arrivalFault(arrive))
}

// arrivalFault describes an arrival that is negative or not finite.
func arrivalFault(us float64) string {
	return fmt.Sprintf("arrival %g µs is negative or not finite", us)
}

// recordFault describes why a binary record cannot carry r — an arrival
// that is negative or not finite, an LPN outside [0, binaryMaxLPN], a
// page count outside [1, binaryMaxPages], an op other than Read or
// Write — or returns "" when it can.
func recordFault(r Request) string {
	switch {
	case !(r.ArriveUS >= 0 && r.ArriveUS <= math.MaxFloat64):
		return arrivalFault(r.ArriveUS)
	case r.LPN < 0 || r.LPN > binaryMaxLPN:
		return fmt.Sprintf("LPN %d is outside [0, %d]", r.LPN, int64(binaryMaxLPN))
	case r.Pages < 1 || r.Pages > binaryMaxPages:
		return fmt.Sprintf("%d pages is outside [1, %d]", r.Pages, binaryMaxPages)
	case r.Op != Read && r.Op != Write:
		return fmt.Sprintf("op %d is neither read (%d) nor write (%d)", int(r.Op), Read, Write)
	}
	return ""
}

package trace

import (
	"encoding/binary"
	"fmt"
	"math"
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
// encode writes each record once instead of re-copying as it grows.
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
		buf = appendBinaryRecord(buf, &r)
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

func appendBinaryRecord(buf []byte, r *Request) []byte {
	var rec [binaryRecordBytes]byte
	binary.LittleEndian.PutUint64(rec[0:8], math.Float64bits(r.ArriveUS))
	binary.LittleEndian.PutUint64(rec[8:16], uint64(r.LPN))
	binary.LittleEndian.PutUint32(rec[16:20], uint32(r.Pages))
	rec[20] = byte(r.Op)
	return append(buf, rec[:]...)
}

// BinarySource decodes a binary trace in place: Next reads each record
// straight out of the backing byte slice, so replaying a pre-encoded
// trace allocates nothing per request.
type BinarySource struct {
	data   []byte // records only, header stripped
	i      int    // byte offset of the next record
	count  int64
	read   int64
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
	if int64(len(body)) < count*binaryRecordBytes {
		return nil, fmt.Errorf("trace: binary trace truncated: %d record bytes, want %d",
			len(body), count*binaryRecordBytes)
	}
	return &BinarySource{data: body, count: count, maxLPN: maxLPN}, nil
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

// Next implements Source.
func (b *BinarySource) Next() (Request, bool, error) {
	if b.read >= b.count {
		return Request{}, false, nil
	}
	rec := b.data[b.i : b.i+binaryRecordBytes]
	b.i += binaryRecordBytes
	b.read++
	return Request{
		ArriveUS: math.Float64frombits(binary.LittleEndian.Uint64(rec[0:8])),
		LPN:      int64(binary.LittleEndian.Uint64(rec[8:16])),
		Pages:    int(int32(binary.LittleEndian.Uint32(rec[16:20]))),
		Op:       Op(rec[20]),
	}, true, nil
}

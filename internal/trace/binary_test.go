package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// encodeReqs encodes a materialized trace through the streaming encoder.
func encodeReqs(t *testing.T, reqs []Request) []byte {
	t.Helper()
	data, err := EncodeBinarySource(Sliced(reqs))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestBinaryRoundTrip: encode → decode must reproduce a generated trace
// record for record, the header must carry the exact count and maximum
// touched LPN, and encoding the streaming generator must emit the same
// bytes as encoding its materialized trace, into an exactly sized buffer.
func TestBinaryRoundTrip(t *testing.T) {
	spec, err := WorkloadByName("hm_0")
	if err != nil {
		t.Fatal(err)
	}
	spec.WorkingSetPages = 8000
	reqs, err := Generate(spec, 2000, 42)
	if err != nil {
		t.Fatal(err)
	}

	data := encodeReqs(t, reqs)
	gen, err := NewGenerator(spec, 2000, 42)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := EncodeBinarySource(gen)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, streamed) {
		t.Fatal("encoding the generator diverged from encoding its materialized trace")
	}
	// The generator reports its length, so the encode is sized exactly.
	if want := binaryHeaderBytes + len(reqs)*binaryRecordBytes; len(streamed) != want || cap(streamed) != want {
		t.Fatalf("generator encode len %d cap %d, want both %d", len(streamed), cap(streamed), want)
	}

	src, err := NewBinarySource(data)
	if err != nil {
		t.Fatal(err)
	}
	if src.Len() != len(reqs) {
		t.Fatalf("Len = %d, want %d", src.Len(), len(reqs))
	}
	var wantMax int64 = -1
	for _, r := range reqs {
		if last := r.LPN + int64(r.Pages) - 1; last > wantMax {
			wantMax = last
		}
	}
	if src.MaxLPN() != wantMax {
		t.Fatalf("MaxLPN = %d, want %d", src.MaxLPN(), wantMax)
	}
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(reqs))
	}
	for i := range reqs {
		if got[i] != reqs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], reqs[i])
		}
	}
	// A drained source stays drained.
	if _, ok, _ := src.Next(); ok {
		t.Fatal("source yielded past the end")
	}
}

// TestBinaryEmptyTrace: a zero-record trace is valid — header only,
// MaxLPN sentinel -1.
func TestBinaryEmptyTrace(t *testing.T) {
	src, err := NewBinarySource(encodeReqs(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if src.Len() != 0 || src.MaxLPN() != -1 {
		t.Fatalf("empty trace: Len=%d MaxLPN=%d", src.Len(), src.MaxLPN())
	}
	if _, ok, _ := src.Next(); ok {
		t.Fatal("empty trace yielded a record")
	}
}

// TestBinaryOpenerResets: every open re-decodes the full trace from the
// start — the engine's precondition and replay passes both depend on it.
func TestBinaryOpenerResets(t *testing.T) {
	reqs := []Request{
		{ArriveUS: 1, Op: Read, LPN: 10, Pages: 2},
		{ArriveUS: 2.5, Op: Write, LPN: 640, Pages: 3},
	}
	open, err := BinaryOpener(encodeReqs(t, reqs))
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		src, err := open()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Collect(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(reqs) || got[0] != reqs[0] || got[1] != reqs[1] {
			t.Fatalf("pass %d decoded %+v, want %+v", pass, got, reqs)
		}
	}
}

// TestBinaryValidation: truncated, corrupted and version-skewed inputs
// are rejected with a diagnostic, never decoded.
func TestBinaryValidation(t *testing.T) {
	good := encodeReqs(t, []Request{{Op: Read, LPN: 1, Pages: 1}})

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"shortHeader", good[:10], "truncated"},
		{"badMagic", append([]byte("NOPE"), good[4:]...), "magic"},
		{"badVersion", func() []byte {
			d := bytes.Clone(good)
			binary.LittleEndian.PutUint16(d[4:6], 99)
			return d
		}(), "version"},
		{"negativeCount", func() []byte {
			d := bytes.Clone(good)
			binary.LittleEndian.PutUint64(d[8:16], ^uint64(0))
			return d
		}(), "count"},
		{"truncatedBody", good[:len(good)-1], "truncated"},
		// count*24 wraps to 0 in int64: a header-only buffer claiming 2^62
		// records must not pass the length check.
		{"countOverflow", func() []byte {
			d := bytes.Clone(good[:binaryHeaderBytes])
			binary.LittleEndian.PutUint64(d[8:16], 1<<62)
			return d
		}(), "truncated"},
	}
	for _, c := range cases {
		if _, err := NewBinarySource(c.data); err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
		if _, err := BinaryOpener(c.data); err == nil {
			t.Errorf("%s: BinaryOpener accepted", c.name)
		}
	}
}

// TestBinaryRejectsBadRecords: a record whose arrival no other source
// could yield fails the trace with an error naming its index, after the
// good records before it decode normally; the source stays on the bad
// record. A zero or negative page count or an unknown op cannot be
// written at all: the encoder refuses it, and every pattern of the packed
// word's pages and op bits decodes in range.
func TestBinaryRejectsBadRecords(t *testing.T) {
	cases := []struct {
		name    string
		arrival float64
	}{
		{"nanArrival", math.NaN()},
		{"infArrival", math.Inf(1)},
		{"negativeArrival", -1},
	}
	reqs := []Request{
		{ArriveUS: 0, Op: Read, LPN: 1, Pages: 1},
		{ArriveUS: 3, Op: Write, LPN: 2, Pages: 2},
		{ArriveUS: 5, Op: Read, LPN: 3, Pages: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := encodeReqs(t, reqs)
			rec1 := binaryHeaderBytes + binaryRecordBytes
			binary.LittleEndian.PutUint64(data[rec1:rec1+8], math.Float64bits(c.arrival))
			src, err := NewBinarySource(data)
			if err != nil {
				t.Fatal(err)
			}
			if r, ok, err := src.Next(); err != nil || !ok || r != reqs[0] {
				t.Fatalf("record 0 = %+v, %v, %v; want %+v", r, ok, err, reqs[0])
			}
			for try := 0; try < 2; try++ {
				_, ok, err := src.Next()
				if err == nil || ok {
					t.Fatalf("bad record accepted (ok=%v)", ok)
				}
				if msg := err.Error(); !strings.Contains(msg, "record 1") || !strings.Contains(msg, "arrival") {
					t.Fatalf("error %q does not name record 1 and its arrival", msg)
				}
			}
		})
	}
	// Each bad page count or op: the encoder refuses it at its index, and
	// the packed bits nearest to it decode to the in-range value shown.
	unwritable := []struct {
		name string
		bad  Request
		word uint64
		want Request
	}{
		{"zeroPages", Request{ArriveUS: 4, Op: Read, Pages: 0}, 0, Request{Op: Read, Pages: 1}},
		{"negativePages", Request{ArriveUS: 4, Op: Read, Pages: -1},
			(binaryMaxPages - 1) << binaryLPNBits, Request{Op: Read, Pages: binaryMaxPages}},
		{"unknownOp", Request{ArriveUS: 4, Op: 2, Pages: 1}, 1 << binaryOpShift, Request{Op: Write, Pages: 1}},
	}
	for _, c := range unwritable {
		t.Run(c.name, func(t *testing.T) {
			if _, err := EncodeBinarySource(Sliced([]Request{reqs[0], c.bad})); err == nil ||
				!strings.Contains(err.Error(), "record 1") {
				t.Fatalf("encoder error %v does not refuse record 1", err)
			}
			data := encodeReqs(t, []Request{{Op: Read, Pages: 1}})
			binary.LittleEndian.PutUint64(data[binaryHeaderBytes+8:binaryHeaderBytes+16], c.word)
			src, err := NewBinarySource(data)
			if err != nil {
				t.Fatal(err)
			}
			if r, ok, err := src.Next(); err != nil || !ok || r != c.want {
				t.Fatalf("word %#x decoded to %+v, %v, %v; want %+v", c.word, r, ok, err, c.want)
			}
		})
	}
	// All 2^24 pages/op patterns, under an all-zero and an all-one LPN,
	// decode to pages in [1, 2^23] and an op in {Read, Write}, and leave
	// the LPN bits alone.
	t.Run("everyPagesOpPattern", func(t *testing.T) {
		data := encodeReqs(t, []Request{{Op: Read, Pages: 1}})
		word := data[binaryHeaderBytes+8 : binaryHeaderBytes+16]
		src, err := NewBinarySource(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, lpn := range []uint64{0, binaryMaxLPN} {
			for bits := uint64(0); bits < 1<<(64-binaryLPNBits); bits++ {
				binary.LittleEndian.PutUint64(word, bits<<binaryLPNBits|lpn)
				src.data = data[binaryHeaderBytes:]
				r, ok, err := src.Next()
				if err != nil || !ok {
					t.Fatalf("pages/op bits %#x: %v, %v", bits, ok, err)
				}
				if r.Pages < 1 || r.Pages > 1<<23 || (r.Op != Read && r.Op != Write) || r.LPN != int64(lpn) {
					t.Fatalf("pages/op bits %#x under LPN %#x decoded to %+v", bits, lpn, r)
				}
				if want := int(bits&(1<<23-1)) + 1; r.Pages != want || r.Op != Op(bits>>23) {
					t.Fatalf("pages/op bits %#x decoded to %d pages, op %d", bits, r.Pages, r.Op)
				}
			}
		}
	})
}

// TestEncodeRejectsBadRecords: the encoder refuses every record the
// packed layout cannot carry, with an error naming the record's index
// instead of writing a trace that fails only when replayed; the
// largest fields it carries round-trip; and a version-1 buffer is
// refused.
func TestEncodeRejectsBadRecords(t *testing.T) {
	cases := []struct {
		name string
		bad  Request
		want string
	}{
		{"nanArrival", Request{ArriveUS: math.NaN(), Pages: 1}, "arrival"},
		{"infArrival", Request{ArriveUS: math.Inf(1), Pages: 1}, "arrival"},
		{"negativeArrival", Request{ArriveUS: -1, Pages: 1}, "arrival"},
		{"zeroPages", Request{ArriveUS: 4, Pages: 0}, "0 pages"},
		{"negativePages", Request{ArriveUS: 4, Pages: -3}, "-3 pages"},
		{"tooManyPages", Request{ArriveUS: 4, Pages: 1<<23 + 1}, "8388609 pages"},
		{"hugePages", Request{ArriveUS: 4, Pages: math.MaxInt32 + 1}, "pages"},
		{"negativeLPN", Request{ArriveUS: 4, LPN: -1, Pages: 1}, "LPN -1"},
		{"lpn2^40", Request{ArriveUS: 4, LPN: 1 << 40, Pages: 1}, "LPN 1099511627776"},
		{"maxLPN", Request{ArriveUS: 4, LPN: math.MaxInt64, Pages: 1}, "LPN"},
		{"unknownOp", Request{ArriveUS: 4, Pages: 1, Op: 2}, "op 2"},
		{"negativeOp", Request{ArriveUS: 4, Pages: 1, Op: -1}, "op -1"},
		{"wrappingOp", Request{ArriveUS: 4, Pages: 1, Op: 256}, "op 256"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reqs := []Request{
				{ArriveUS: 0, Op: Read, LPN: 1, Pages: 1},
				{ArriveUS: 3, Op: Write, LPN: 2, Pages: 2},
				c.bad,
			}
			data, err := EncodeBinarySource(Sliced(reqs))
			if err == nil {
				t.Fatalf("encoded %+v into %d bytes", c.bad, len(data))
			}
			if msg := err.Error(); !strings.Contains(msg, "record 2") || !strings.Contains(msg, c.want) {
				t.Fatalf("error %q does not name record 2 and %q", msg, c.want)
			}
		})
	}
	// The largest LPN and page count the fields hold still round-trip,
	// under both ops.
	big := []Request{
		{ArriveUS: math.MaxFloat64, Op: Write, LPN: 1<<40 - 1, Pages: 1 << 23},
		{ArriveUS: 1, Op: Read, LPN: 1<<40 - 1, Pages: 1 << 23},
	}
	data := encodeReqs(t, big)
	src, err := NewBinarySource(data)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(1<<40 + 1<<23 - 2); src.MaxLPN() != want {
		t.Fatalf("MaxLPN = %d, want %d", src.MaxLPN(), want)
	}
	for _, want := range big {
		if r, ok, err := src.Next(); err != nil || !ok || r != want {
			t.Fatalf("decoded %+v, %v, %v; want %+v", r, ok, err, want)
		}
	}
	// A version-1 buffer (24-byte records) is refused, not misread.
	binary.LittleEndian.PutUint16(data[4:6], 1)
	if _, err := NewBinarySource(data); err == nil || !strings.Contains(err.Error(), "version 1, want 2") {
		t.Fatalf("version-1 header: %v", err)
	}
}

// lenSource is a Source that reports a fixed length, whatever it yields.
type lenSource struct {
	*SliceSource
	n int
}

func (s lenSource) Len() int { return s.n }

// TestEncodeUntrustedLen: a source whose Len() overstates (or
// understates) its records encodes exactly as a plain slice does. An
// overflowing or implausibly large Len() reserves no huge buffer.
func TestEncodeUntrustedLen(t *testing.T) {
	reqs := []Request{
		{ArriveUS: 1, Op: Read, LPN: 10, Pages: 2},
		{ArriveUS: 2.5, Op: Write, LPN: 640, Pages: 3},
		{ArriveUS: 4, Op: Read, LPN: 7, Pages: 1},
	}
	want := encodeReqs(t, reqs)
	for _, n := range []int{math.MaxInt, math.MaxInt / binaryRecordBytes, 1 << 40, binaryPresizeBytes, 10, 1, 0, -1, math.MinInt} {
		got, err := EncodeBinarySource(lenSource{Sliced(reqs), n})
		if err != nil {
			t.Fatalf("Len %d: %v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Len %d: encoding diverged from the slice's", n)
		}
		if cap(got) > binaryPresizeBytes {
			t.Fatalf("Len %d: reserved %d bytes for %d records", n, cap(got), len(reqs))
		}
	}
	// A plausible overstatement is trusted: the buffer is reserved whole.
	got, err := EncodeBinarySource(lenSource{Sliced(reqs), 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := binaryHeaderBytes + 10*binaryRecordBytes; cap(got) != want {
		t.Fatalf("Len 10: cap %d, want %d", cap(got), want)
	}
}

// FuzzBinaryRecord fuzzes one request through the encoder and 16 raw
// bytes through the decoder. A request inside the layout's ranges must
// round-trip bit for bit (the arrival's bits included: -0, subnormals,
// MaxFloat64); one outside must fail the encode naming its index. Any
// 16 bytes must decode either to a request that re-encodes to those
// bytes, or to the arrival error naming the record.
func FuzzBinaryRecord(f *testing.F) {
	var maxRaw [16]byte
	binary.LittleEndian.PutUint64(maxRaw[0:], math.Float64bits(math.MaxFloat64))
	binary.LittleEndian.PutUint64(maxRaw[8:], ^uint64(0))
	f.Add(math.Float64bits(0), int64(0), int64(1), int64(Read), make([]byte, 16))
	f.Add(math.Float64bits(math.Copysign(0, -1)), int64(binaryMaxLPN), int64(binaryMaxPages), int64(Write), maxRaw[:])
	f.Add(uint64(1), int64(1<<32), int64(8), int64(Read), bytes.Repeat([]byte{0xff}, 16))
	f.Add(math.Float64bits(math.MaxFloat64), int64(binaryMaxLPN+1), int64(binaryMaxPages+1), int64(2), []byte("S3DT"))
	f.Add(math.Float64bits(math.NaN()), int64(-1), int64(0), int64(-1), append(make([]byte, 8), 0xff))
	f.Add(math.Float64bits(math.Inf(1)), int64(math.MaxInt64), int64(math.MinInt64), int64(256), make([]byte, 24))
	f.Fuzz(func(t *testing.T, arriveBits uint64, lpn, pages, op int64, raw []byte) {
		// Encoder: a good record first, so the fuzzed one is record 1.
		r := Request{ArriveUS: math.Float64frombits(arriveBits), LPN: lpn, Pages: int(pages), Op: Op(op)}
		fits := r.ArriveUS >= 0 && r.ArriveUS <= math.MaxFloat64 &&
			lpn >= 0 && lpn < 1<<40 && pages >= 1 && pages <= 1<<23 && (op == 0 || op == 1)
		lead := Request{ArriveUS: 1, Op: Write, LPN: 5, Pages: 2}
		data, err := EncodeBinarySource(Sliced([]Request{lead, r}))
		if !fits {
			if err == nil || !strings.Contains(err.Error(), "record 1") {
				t.Fatalf("encode of out-of-range %+v: %v", r, err)
			}
		} else {
			if err != nil {
				t.Fatalf("encode of in-range %+v: %v", r, err)
			}
			got, err := Collect(mustBinarySource(t, data))
			if err != nil || len(got) != 2 || got[0] != lead {
				t.Fatalf("decode: %+v, %v", got, err)
			}
			g := got[1]
			if math.Float64bits(g.ArriveUS) != arriveBits || g.LPN != lpn || g.Pages != int(pages) || g.Op != Op(op) {
				t.Fatalf("round trip %+v -> %+v", r, g)
			}
		}

		// Decoder: any 16 bytes.
		var rec [binaryRecordBytes]byte
		copy(rec[:], raw)
		buf := make([]byte, binaryHeaderBytes, binaryHeaderBytes+binaryRecordBytes)
		putBinaryHeader(buf, 1, 0)
		src := mustBinarySource(t, append(buf, rec[:]...))
		d, ok, err := src.Next()
		if err != nil {
			a := math.Float64frombits(binary.LittleEndian.Uint64(rec[:]))
			if ok || a >= 0 && a <= math.MaxFloat64 {
				t.Fatalf("record %x: refused with arrival %g: %v", rec, a, err)
			}
			if msg := err.Error(); !strings.Contains(msg, "record 0") || !strings.Contains(msg, "arrival") {
				t.Fatalf("record %x: error %q does not name record 0 and its arrival", rec, msg)
			}
			return
		}
		if !ok {
			t.Fatalf("record %x: source empty", rec)
		}
		again, err := EncodeBinarySource(Sliced([]Request{d}))
		if err != nil {
			t.Fatalf("record %x decoded to %+v, which does not re-encode: %v", rec, d, err)
		}
		if !bytes.Equal(again[binaryHeaderBytes:], rec[:]) {
			t.Fatalf("record %x decoded to %+v, which re-encodes to %x", rec, d, again[binaryHeaderBytes:])
		}
	})
}

func mustBinarySource(t *testing.T, data []byte) *BinarySource {
	t.Helper()
	src, err := NewBinarySource(data)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// BenchmarkEncodeBinarySource re-encodes a decoded mds_0 trace, so the
// loop times the encoder's record writes and checks, not a generator.
// One op is one record.
func BenchmarkEncodeBinarySource(b *testing.B) {
	spec, _ := WorkloadByName("mds_0")
	g, err := NewGenerator(spec, 1<<18, 1)
	if err != nil {
		b.Fatal(err)
	}
	data, err := EncodeBinarySource(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += 1 << 18 {
		src, err := NewBinarySource(data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := EncodeBinarySource(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBinarySourceNext decodes the mds_0 trace record by record,
// as the replay loops do. One op is one record.
func BenchmarkBinarySourceNext(b *testing.B) {
	spec, _ := WorkloadByName("mds_0")
	g, err := NewGenerator(spec, 1<<18, 1)
	if err != nil {
		b.Fatal(err)
	}
	data, err := EncodeBinarySource(g)
	if err != nil {
		b.Fatal(err)
	}
	var sink int64
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += 1 << 18 {
		src, err := NewBinarySource(data)
		if err != nil {
			b.Fatal(err)
		}
		for {
			r, ok, err := src.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			sink += r.LPN + int64(r.Pages) + int64(r.Op)
		}
	}
	if sink == 0 {
		b.Fatal("decoded nothing")
	}
}

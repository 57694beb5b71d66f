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

// TestBinaryRejectsBadRecords: a record no other source could yield
// fails the trace with an error naming its index, after the good
// records before it decode normally; the source stays on the bad record.
func TestBinaryRejectsBadRecords(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(rec []byte)
		want    string
	}{
		{"nanArrival", func(rec []byte) {
			binary.LittleEndian.PutUint64(rec[0:8], math.Float64bits(math.NaN()))
		}, "arrival"},
		{"infArrival", func(rec []byte) {
			binary.LittleEndian.PutUint64(rec[0:8], math.Float64bits(math.Inf(1)))
		}, "arrival"},
		{"negativeArrival", func(rec []byte) {
			binary.LittleEndian.PutUint64(rec[0:8], math.Float64bits(-1))
		}, "arrival"},
		{"zeroPages", func(rec []byte) {
			binary.LittleEndian.PutUint32(rec[16:20], 0)
		}, "pages"},
		{"negativePages", func(rec []byte) {
			binary.LittleEndian.PutUint32(rec[16:20], ^uint32(0))
		}, "pages"},
		{"unknownOp", func(rec []byte) { rec[20] = 2 }, "op 2"},
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
			c.corrupt(data[rec1 : rec1+binaryRecordBytes])
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
				if msg := err.Error(); !strings.Contains(msg, "record 1") || !strings.Contains(msg, c.want) {
					t.Fatalf("error %q does not name record 1 and %q", msg, c.want)
				}
			}
		})
	}
}

// TestEncodeRejectsBadRecords: the encoder refuses every record the
// decoder would reject, and page counts its 32-bit field would truncate,
// with an error naming the record's index instead of writing a trace
// that fails only when replayed.
func TestEncodeRejectsBadRecords(t *testing.T) {
	cases := []struct {
		name string
		bad  Request
		want string
	}{
		{"nanArrival", Request{ArriveUS: math.NaN(), Pages: 1}, "arrival"},
		{"infArrival", Request{ArriveUS: math.Inf(1), Pages: 1}, "arrival"},
		{"negativeArrival", Request{ArriveUS: -1, Pages: 1}, "arrival"},
		{"zeroPages", Request{ArriveUS: 4, Pages: 0}, "pages"},
		{"negativePages", Request{ArriveUS: 4, Pages: -3}, "pages"},
		{"hugePages", Request{ArriveUS: 4, Pages: math.MaxInt32 + 1}, "32-bit"},
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
	// The largest page count the field holds still round-trips.
	big := []Request{{ArriveUS: 1, Op: Write, Pages: math.MaxInt32}}
	src, err := NewBinarySource(encodeReqs(t, big))
	if err != nil {
		t.Fatal(err)
	}
	if r, ok, err := src.Next(); err != nil || !ok || r != big[0] {
		t.Fatalf("decoded %+v, %v, %v; want %+v", r, ok, err, big[0])
	}
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

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"sentinel3d/internal/mathx"
	"sentinel3d/internal/obs"
)

// wireStrings are tenant names, checks and error codes that exercise
// the plain path and every escape encoding/json applies.
var wireStrings = []string{
	"", "gold", "bronze", "a b~\x7f", "<b>&amp;", `say "hi"`, `back\slash`,
	"göld", "日本", "line\u2028sep", "bad\xffutf8", "ctl\x01\t\n", "1f2e3d4c5b6a7980",
}

// wireFloat draws the floats whose encoding/json rendering has edge
// cases: zero and its sign, subnormals, both sides of the 'e'-format
// bounds, integers, and arbitrary finite bit patterns.
func wireFloat(rng *mathx.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))
	case 3:
		return math.Float64frombits(rng.Uint64() >> 12) // subnormal
	case 4:
		return 1e-6 * (1 - rng.Float64()*1e-9)
	case 5:
		return 1e-6
	case 6:
		return 1e21 * (1 - rng.Float64()*1e-15)
	case 7:
		return 1e21
	case 8:
		return float64(rng.Intn(1 << 20))
	case 9:
		return rng.Float64() * 1e4
	default:
		for {
			f := math.Float64frombits(rng.Uint64())
			if !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
}

func wireInt(rng *mathx.Rand) int64 {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return int64(rng.Uint64()) // any sign, any magnitude
	default:
		return int64(rng.Intn(1 << 20))
	}
}

func randReadResponse(rng *mathx.Rand) ReadResponse {
	v := ReadResponse{
		Tenant:       wireStrings[rng.Intn(len(wireStrings))],
		Policy:       wireStrings[rng.Intn(len(wireStrings))],
		DegradeLevel: int(wireInt(rng)),
		ForcedPolicy: rng.Intn(2) == 0,
	}
	switch n := rng.Intn(6); n {
	case 0: // nil: "results":null
	case 1:
		v.Results = []ReadResult{}
	default:
		v.Results = make([]ReadResult, n-1+rng.Intn(10))
		for i := range v.Results {
			v.Results[i] = ReadResult{
				LPN: wireInt(rng), SimUS: wireFloat(rng), QueueWaitUS: wireFloat(rng),
				Shard: int(wireInt(rng)), Retries: int(wireInt(rng)), AuxSenses: int(wireInt(rng)),
				UsedFallback: rng.Intn(2) == 0, Uncorrectable: rng.Intn(2) == 0,
				FailFast: rng.Intn(2) == 0, UnmappedPages: int(wireInt(rng)),
				Check: wireStrings[rng.Intn(len(wireStrings))],
			}
			if rng.Intn(3) == 0 {
				v.Results[i].Error = wireStrings[rng.Intn(len(wireStrings))]
			}
		}
	}
	return v
}

func randReadRequest(rng *mathx.Rand) ReadRequest {
	v := ReadRequest{Tenant: wireStrings[rng.Intn(len(wireStrings))], Pages: int(wireInt(rng))}
	if rng.Intn(2) == 0 {
		lpn := wireInt(rng)
		v.LPN = &lpn
	}
	switch n := rng.Intn(5); n {
	case 0: // nil
	case 1:
		v.Batch = []BatchRead{} // empty: omitted like nil
	default:
		v.Batch = make([]BatchRead, n-1+rng.Intn(12))
		for i := range v.Batch {
			v.Batch[i] = BatchRead{LPN: wireInt(rng), Pages: int(wireInt(rng))}
		}
	}
	if rng.Intn(3) > 0 {
		v.DeadlineMs = wireFloat(rng)
	}
	return v
}

func jsonEncode(v any) ([]byte, error) {
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(v)
	return b.Bytes(), err
}

// checkWire compares one value's append encoding against json.Encoder
// and its decode against json.Decoder; canonical bytes must take the
// fast path.
func checkWire[T any](t *testing.T, v T, appendFn func([]byte, *T) ([]byte, error), decode func([]byte) (T, bool)) {
	t.Helper()
	want, wantErr := jsonEncode(v)
	got, err := appendFn(nil, &v)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%+v: append error %v, json error %v", v, err, wantErr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%+v:\nappend %s\njson   %s", v, got, want)
	}
	var ref T
	if err := json.NewDecoder(bytes.NewReader(want)).Decode(&ref); err != nil {
		t.Fatal(err)
	}
	fast, ok := decode(want)
	plain := !bytes.ContainsRune(want, '\\') && !bytes.Contains(want, []byte(":null"))
	for _, c := range want {
		plain = plain && c < utf8.RuneSelf
	}
	if plain && !ok {
		t.Fatalf("canonical body refused: %s", want)
	}
	if ok && !reflect.DeepEqual(fast, ref) {
		t.Fatalf("%s:\nfast %+v\njson %+v", want, fast, ref)
	}
}

func TestReadWireMatchesEncodingJSON(t *testing.T) {
	rng := mathx.NewRand(28)
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for i := 0; i < n; i++ {
		checkWire(t, randReadResponse(rng), appendReadResponse, decodeReadResponse)
		checkWire(t, randReadRequest(rng), appendReadRequest, decodeReadRequest)
	}
	// Non-finite floats fail in both encoders, as they do in json.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkWire(t, ReadResponse{Results: []ReadResult{{SimUS: f}}}, appendReadResponse, decodeReadResponse)
		checkWire(t, ReadResponse{Results: []ReadResult{{QueueWaitUS: f}}}, appendReadResponse, decodeReadResponse)
		checkWire(t, ReadRequest{DeadlineMs: f}, appendReadRequest, decodeReadRequest)
	}
}

// wireFuzzSeeds are canonical bodies plus the non-canonical shapes the
// fast decoders must refuse or read exactly as json does.
var wireFuzzSeeds = []string{
	`{"tenant":"gold","lpn":123}`,
	`{"tenant":"bronze","batch":[{"lpn":1},{"lpn":70,"pages":2}],"deadline_ms":2.5e-7}`,
	` { "tenant" : "gold" , "lpn" : -0 , "pages" : 3 } trailing`,
	`{"tenant":"gold","LPN":5}`,
	`{"tenant":"gold","lpn":5,"lpn":6}`,
	`{"tenant":"gold","batch":[],"extra":{"a":[1,2]}}`,
	`{"tenant":null,"lpn":1.0}`,
	`{"tenant":"g\u006fld","lpn":1e2}`,
	`{"lpn":99999999999999999999}`,
	`null`,
	`{"tenant":"gold","degrade_level":0,"forced_policy":true,"policy":"table","results":[{"lpn":1,"sim_us":85.5,"queue_wait_us":0,"shard":1,"retries":2,"aux_senses":1,"used_fallback":true,"check":"ab12"}]}`,
	`{"tenant":"gold","results":[{"lpn":1,"error":"deadline","unmapped_pages":1,"fail_fast":false}],"results":[]}`,
	`{"tenant":"gold","policy":"sentinel","degrade_level":1,"results":null}`,
	`{"results":[{"sim_us":1e400}]}`,
	// json decodes a repeated array into the first one's elements.
	`{"tenant":"bronze","batch":[{"lpn":1,"pages":2}],"batch":[{"lpn":3}]}`,
	`{"results":[{"lpn":1,"shard":1}],"results":[{"lpn":2}]}`,
}

// FuzzReadWireDecode: on any bytes, each fast decoder refuses or
// returns exactly json.Decoder's value, and never accepts what
// json.Decoder rejects.
func FuzzReadWireDecode(f *testing.F) {
	for _, s := range wireFuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if req, ok := decodeReadRequest(b); ok {
			var ref ReadRequest
			if err := json.NewDecoder(bytes.NewReader(b)).Decode(&ref); err != nil {
				t.Fatalf("request %q: fast accepted, json: %v", b, err)
			}
			if !reflect.DeepEqual(req, ref) {
				t.Fatalf("request %q:\nfast %+v\njson %+v", b, req, ref)
			}
		}
		if resp, ok := decodeReadResponse(b); ok {
			var ref ReadResponse
			if err := json.NewDecoder(bytes.NewReader(b)).Decode(&ref); err != nil {
				t.Fatalf("response %q: fast accepted, json: %v", b, err)
			}
			if !reflect.DeepEqual(resp, ref) {
				t.Fatalf("response %q:\nfast %+v\njson %+v", b, resp, ref)
			}
		}
	})
}

// readExchange posts body and returns the status and the body with the
// wall-clock queue waits zeroed (every other field is deterministic).
func readExchange(t *testing.T, base string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(base+"/read", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, string(data)
	}
	var rr ReadResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatalf("200 body %q: %v", data, err)
	}
	for i := range rr.Results {
		rr.Results[i].QueueWaitUS = 0
	}
	out, _ := json.Marshal(rr)
	return resp.StatusCode, string(out)
}

// TestServerNonCanonicalBodies: a body the fast decoder refuses gets
// the response the json.Decoder-only handler gave it. The reference is
// that decoder over the same 1 MiB cap; a body it accepts must be
// answered exactly as its canonical re-encoding is.
func TestServerNonCanonicalBodies(t *testing.T) {
	s := startServer(t, testConfig())
	base := "http://" + s.Addr()
	pad := strings.Repeat(" ", 1<<20+512)
	bodies := []string{
		"\t{ \"tenant\" :\n\"gold\" ,\r\n \"lpn\" : 17 }\n",
		`{"tenant":"gold","LPN":17}`,
		`{"Tenant":"bronze","BATCH":[{"Lpn":3},{"lpn":4,"PAGES":2}]}`,
		`{"tenant":"gold","lpn":17,"unknown":{"nested":[1,"x",null]}}`,
		`{"tenant":"gold","lpn":17,"lpn":18}`,
		`{"tenant":"bronze","batch":[{"lpn":3,"pages":2}],"batch":[{"lpn":4}]}`,
		`{"tenant":"gold","lpn":null,"batch":[{"lpn":5}]}`,
		`{"tenant":"g\u006fld","lpn":17}`,
		`null`,
		`{"tenant":null,"lpn":17}`,
		`{"tenant":"gold","lpn":17}garbage after the value`,
		`{"tenant":"gold","lpn":17}` + pad,
		`{"tenant":"gold",` + pad + `"lpn":17}`,
		`{"tenant":"gold","lpn":1.5}`,
		`{"tenant":"gold","lpn":17`,
		``,
	}
	for _, body := range bodies {
		label := body
		if len(label) > 60 {
			label = label[:30] + "…" + label[len(label)-30:]
		}
		var ref ReadRequest
		refErr := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(body)), 1<<20)).Decode(&ref)
		code, got := readExchange(t, base, []byte(body))
		if refErr != nil {
			if code != http.StatusBadRequest || got != "{\"error\":\"bad_json\"}\n" {
				t.Errorf("%q: status %d %q, want 400 bad_json (json: %v)", label, code, got, refErr)
			}
			continue
		}
		canon, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		wantCode, want := readExchange(t, base, canon)
		if code != wantCode || got != want {
			t.Errorf("%q: status %d %s\nwant %d %s (canonical %s)", label, code, got, wantCode, want, canon)
		}
	}
}

// TestServeOKEncodeFailure: a NaN in the 200 body is a 500 "encode"
// with no success counted, not an empty 200.
func TestServeOKEncodeFailure(t *testing.T) {
	reg := obs.NewRegistry(1)
	tn := newTenant(TenantConfig{Name: "gold", SLOMs: 20}, reg.Set(0))
	resp := &ReadResponse{Tenant: "gold", Policy: "sentinel",
		Results: []ReadResult{{LPN: 1, SimUS: math.NaN(), Check: "1"}}}

	w := httptest.NewRecorder()
	buf := getWireBuf()
	tn.serveOK(w, buf, resp, aggFlags{fallback: true}, time.Millisecond)
	if w.Code != http.StatusInternalServerError || w.Body.String() != "{\"error\":\"encode\"}\n" {
		t.Fatalf("NaN body: status %d %q, want 500 encode", w.Code, w.Body.String())
	}
	if n := tn.m.ok.Value(); n != 0 {
		t.Fatalf("ok counted %d times for a failed encode", n)
	}
	if n := tn.m.fallback.Value(); n != 0 {
		t.Fatalf("fallback counted %d times for a failed encode", n)
	}

	resp.Results[0].SimUS = 85.5
	w = httptest.NewRecorder()
	tn.serveOK(w, buf, resp, aggFlags{}, time.Millisecond)
	want, _ := jsonEncode(resp)
	if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want) || tn.m.ok.Value() != 1 {
		t.Fatalf("finite body: status %d %q ok=%d, want 200 %q ok=1", w.Code, w.Body.String(), tn.m.ok.Value(), want)
	}
	putWireBuf(buf)

	w = httptest.NewRecorder()
	writeJSON(w, http.StatusOK, map[string]float64{"x": math.Inf(1)})
	if w.Code != http.StatusInternalServerError || w.Body.String() != "{\"error\":\"encode\"}\n" {
		t.Fatalf("writeJSON Inf: status %d %q, want 500 encode", w.Code, w.Body.String())
	}
}

// BenchmarkServeRead is one closed loop through benchClient against an
// in-process server on loopback: request encode, HTTP, handler, fleet
// read and response decode, client and server allocations together.
func BenchmarkServeRead(b *testing.B) {
	for _, width := range []int{1, 3} {
		b.Run(fmt.Sprintf("batch%d", width), func(b *testing.B) {
			s, err := New(testConfig())
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Start("127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			tr := &http.Transport{MaxIdleConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			bc := &benchClient{url: "http://" + s.Addr(), client: &http.Client{Transport: tr}}
			tenant := BenchTenant{Name: "gold", BatchSize: width, Pages: 1}
			if width > 1 {
				tenant.Name = "bronze"
			}
			rng := mathx.NewRand(1)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				status, _, _, err := bc.do(ctx, nextRequest(rng, tenant, 4096))
				if err != nil || status != http.StatusOK {
					b.Fatalf("status %d: %v", status, err)
				}
			}
		})
	}
}

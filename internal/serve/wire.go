package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
)

// This file is the /read wire codec: the request and 200-response
// bodies of the hot exchange, encoded and decoded without reflection.
//
// Contract (DESIGN §11):
//   - the append encoders write exactly the bytes json.NewEncoder(w).Encode
//     writes for the same value, trailing newline included, and fail
//     where it fails (a non-finite float);
//   - the decoders parse the canonical shape (exact field names, each at
//     most once, no null, strings of plain printable ASCII) straight from
//     the body bytes and either return exactly the value a json.Decoder
//     would or refuse; on a refusal the caller runs json.Decoder over the
//     same bytes, so case-folded keys, unknown fields, null, escapes and
//     malformed input keep encoding/json's semantics;
//   - like json.Decoder, a decoder reads only the first JSON value:
//     whatever follows its closing brace is ignored.
//
// FuzzReadWireDecode and TestReadWireMatchesEncodingJSON guard the pair.

// wireBufs recycles body buffers. Buffers that grew past maxPooledBuf
// (a large batch) are dropped rather than pinned in the pool.
var wireBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

const maxPooledBuf = 64 << 10

func getWireBuf() *[]byte { return wireBufs.Get().(*[]byte) }

func putWireBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	wireBufs.Put(b)
}

// readBody appends all of r to b. A read error is returned with the
// bytes read before it: json.Decoder decodes a value that completed
// before its reader failed, and so do the callers.
func readBody(b []byte, r io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// unmarshalReadRequest decodes the first JSON value of b into v (which
// must be zero) exactly as json.NewDecoder(bytes.NewReader(b)).Decode
// does.
func unmarshalReadRequest(b []byte, v *ReadRequest) error {
	if r, ok := decodeReadRequest(b); ok {
		*v = r
		return nil
	}
	return json.NewDecoder(bytes.NewReader(b)).Decode(v)
}

// unmarshalReadResponse is unmarshalReadRequest for a 200 body.
func unmarshalReadResponse(b []byte, v *ReadResponse) error {
	if r, ok := decodeReadResponse(b); ok {
		*v = r
		return nil
	}
	return json.NewDecoder(bytes.NewReader(b)).Decode(v)
}

// appendReadRequest appends json.Encoder's rendering of v.
func appendReadRequest(b []byte, v *ReadRequest) ([]byte, error) {
	b = append(b, `{"tenant":`...)
	b = appendString(b, v.Tenant)
	if v.LPN != nil {
		b = append(b, `,"lpn":`...)
		b = strconv.AppendInt(b, *v.LPN, 10)
	}
	if v.Pages != 0 {
		b = append(b, `,"pages":`...)
		b = strconv.AppendInt(b, int64(v.Pages), 10)
	}
	if len(v.Batch) > 0 {
		b = append(b, `,"batch":[`...)
		for i, r := range v.Batch {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"lpn":`...)
			b = strconv.AppendInt(b, r.LPN, 10)
			if r.Pages != 0 {
				b = append(b, `,"pages":`...)
				b = strconv.AppendInt(b, int64(r.Pages), 10)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if v.DeadlineMs != 0 {
		b = append(b, `,"deadline_ms":`...)
		var err error
		if b, err = appendFloat(b, v.DeadlineMs); err != nil {
			return b, err
		}
	}
	return append(b, "}\n"...), nil
}

// appendReadResponse appends json.Encoder's rendering of v.
func appendReadResponse(b []byte, v *ReadResponse) ([]byte, error) {
	b = append(b, `{"tenant":`...)
	b = appendString(b, v.Tenant)
	b = append(b, `,"policy":`...)
	b = appendString(b, v.Policy)
	b = append(b, `,"degrade_level":`...)
	b = strconv.AppendInt(b, int64(v.DegradeLevel), 10)
	if v.ForcedPolicy {
		b = append(b, `,"forced_policy":true`...)
	}
	b = append(b, `,"results":`...)
	if v.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range v.Results {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendReadResult(b, &v.Results[i]); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...), nil
}

func appendReadResult(b []byte, r *ReadResult) ([]byte, error) {
	var err error
	b = append(b, `{"lpn":`...)
	b = strconv.AppendInt(b, r.LPN, 10)
	b = append(b, `,"sim_us":`...)
	if b, err = appendFloat(b, r.SimUS); err != nil {
		return b, err
	}
	b = append(b, `,"queue_wait_us":`...)
	if b, err = appendFloat(b, r.QueueWaitUS); err != nil {
		return b, err
	}
	b = append(b, `,"shard":`...)
	b = strconv.AppendInt(b, int64(r.Shard), 10)
	b = append(b, `,"retries":`...)
	b = strconv.AppendInt(b, int64(r.Retries), 10)
	b = append(b, `,"aux_senses":`...)
	b = strconv.AppendInt(b, int64(r.AuxSenses), 10)
	if r.UsedFallback {
		b = append(b, `,"used_fallback":true`...)
	}
	if r.Uncorrectable {
		b = append(b, `,"uncorrectable":true`...)
	}
	if r.FailFast {
		b = append(b, `,"fail_fast":true`...)
	}
	if r.UnmappedPages != 0 {
		b = append(b, `,"unmapped_pages":`...)
		b = strconv.AppendInt(b, int64(r.UnmappedPages), 10)
	}
	b = append(b, `,"check":`...)
	b = appendString(b, r.Check)
	if r.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, r.Error)
	}
	return append(b, '}'), nil
}

// appendFloat is encoding/json's float64 format: shortest 'f', or 'e'
// below 1e-6 and from 1e21 on, with a two-digit negative exponent
// trimmed to one (e-09 → e-9). NaN and ±Inf fail as they do in json.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString quotes s as json.Encoder does (HTML-safe). A string of
// plain printable ASCII is copied as is; anything json would escape
// goes through json.Marshal, so the escaping rules live in one place.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) || s[i] == '<' || s[i] == '>' || s[i] == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// plainByte reports whether c stands for itself inside a JSON string:
// printable ASCII (DEL included) other than the quote and backslash.
func plainByte(c byte) bool { return c >= 0x20 && c <= 0x7f && c != '"' && c != '\\' }

// The keys each object may carry; a fast decoder refuses any other.
var (
	requestKeys  = []string{"tenant", "lpn", "pages", "batch", "deadline_ms"}
	batchKeys    = []string{"lpn", "pages"}
	responseKeys = []string{"tenant", "policy", "degrade_level", "forced_policy", "results"}
	resultKeys   = []string{"lpn", "sim_us", "queue_wait_us", "shard", "retries", "aux_senses",
		"used_fallback", "uncorrectable", "fail_fast", "unmapped_pages", "check", "error"}
)

// decodeReadRequest is the canonical fast path of unmarshalReadRequest.
func decodeReadRequest(b []byte) (ReadRequest, bool) {
	d := wireDec{b: b}
	var v ReadRequest
	ok := d.object(requestKeys, func(key string) bool {
		var ok bool
		switch key {
		case "tenant":
			v.Tenant, ok = d.str()
		case "lpn":
			var lpn int64
			if lpn, ok = d.int64(); ok {
				v.LPN = &lpn
			}
		case "pages":
			v.Pages, ok = d.int()
		case "batch":
			v.Batch, ok = d.batch()
		case "deadline_ms":
			v.DeadlineMs, ok = d.float()
		}
		return ok
	})
	return v, ok
}

// decodeReadResponse is the canonical fast path of unmarshalReadResponse.
func decodeReadResponse(b []byte) (ReadResponse, bool) {
	d := wireDec{b: b}
	var v ReadResponse
	ok := d.object(responseKeys, func(key string) bool {
		var ok bool
		switch key {
		case "tenant":
			v.Tenant, ok = d.str()
		case "policy":
			v.Policy, ok = d.str()
		case "degrade_level":
			v.DegradeLevel, ok = d.int()
		case "forced_policy":
			v.ForcedPolicy, ok = d.bool()
		case "results":
			v.Results, ok = d.results()
		}
		return ok
	})
	return v, ok
}

// wireDec is a cursor over a body. Every method refuses (returns
// false) rather than guess; the cursor is garbage after a refusal.
type wireDec struct {
	b []byte
	i int
}

func (d *wireDec) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (d *wireDec) consume(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// object parses {"key": value, ...}, handing each key to field, which
// must parse the value. It refuses a key outside keys (json would fold
// its case or skip it) and a repeated key (json would merge a repeated
// slice into the first).
func (d *wireDec) object(keys []string, field func(key string) bool) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	var seen uint32
	for {
		d.ws()
		raw, ok := d.plain()
		if !ok || !d.consume(':') {
			return false
		}
		k := 0
		for k < len(keys) && string(raw) != keys[k] {
			k++
		}
		if k == len(keys) || seen&(1<<k) != 0 {
			return false
		}
		seen |= 1 << k
		d.ws()
		if !field(keys[k]) {
			return false
		}
		if !d.consume(',') {
			return d.consume('}')
		}
	}
}

// array parses [elem, ...], calling elem once per element.
func (d *wireDec) array(elem func() bool) bool {
	if !d.consume('[') {
		return false
	}
	if d.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !d.consume(',') {
			return d.consume(']')
		}
	}
}

// plain returns the body of a string made only of plainBytes.
func (d *wireDec) plain() ([]byte, bool) {
	if d.i >= len(d.b) || d.b[d.i] != '"' {
		return nil, false
	}
	start := d.i + 1
	for i := start; i < len(d.b); i++ {
		switch c := d.b[i]; {
		case c == '"':
			d.i = i + 1
			return d.b[start:i], true
		case !plainByte(c):
			return nil, false
		}
	}
	return nil, false
}

func (d *wireDec) str() (string, bool) {
	s, ok := d.plain()
	return string(s), ok
}

func (d *wireDec) bool() (bool, bool) {
	switch rest := d.b[d.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		d.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		d.i += 5
		return false, true
	}
	return false, false
}

// number returns the JSON number literal at the cursor and whether it
// is an integer (no fraction, no exponent).
func (d *wireDec) number() (lit []byte, isInt, ok bool) {
	b, i := d.b, d.i
	digits := func() bool {
		start := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return nil, false, false
	}
	isInt = true
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false, false
		}
		isInt = false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false, false
		}
		isInt = false
	}
	lit, d.i = b[d.i:i], i
	return lit, isInt, true
}

// int64 parses an integer literal as json does into an int64 field: a
// fraction, an exponent or an overflow is a json error, so a refusal.
func (d *wireDec) int64() (int64, bool) { return d.intN(64) }

func (d *wireDec) int() (int, bool) {
	n, ok := d.intN(strconv.IntSize)
	return int(n), ok
}

func (d *wireDec) intN(bits int) (int64, bool) {
	lit, isInt, ok := d.number()
	if !ok || !isInt {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, bits)
	return n, err == nil
}

// float parses a number literal as json does into a float64 field.
func (d *wireDec) float() (float64, bool) {
	lit, _, ok := d.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// smallBatch sizes the stack arrays the array decoders collect into,
// so the decoded slice is allocated once, at its exact length.
const smallBatch = 8

// batch parses the request's batch array. Like json, an empty array
// yields an empty non-nil slice.
func (d *wireDec) batch() ([]BatchRead, bool) {
	var scratch [smallBatch]BatchRead
	out := scratch[:0]
	ok := d.array(func() bool {
		var r BatchRead
		ok := d.object(batchKeys, func(key string) bool {
			var ok bool
			switch key {
			case "lpn":
				r.LPN, ok = d.int64()
			case "pages":
				r.Pages, ok = d.int()
			}
			return ok
		})
		out = append(out, r)
		return ok
	})
	if !ok {
		return nil, false
	}
	return append(make([]BatchRead, 0, len(out)), out...), true
}

// results parses the response's results array.
func (d *wireDec) results() ([]ReadResult, bool) {
	var scratch [smallBatch]ReadResult
	out := scratch[:0]
	ok := d.array(func() bool {
		var r ReadResult
		ok := d.object(resultKeys, func(key string) bool {
			var ok bool
			switch key {
			case "lpn":
				r.LPN, ok = d.int64()
			case "sim_us":
				r.SimUS, ok = d.float()
			case "queue_wait_us":
				r.QueueWaitUS, ok = d.float()
			case "shard":
				r.Shard, ok = d.int()
			case "retries":
				r.Retries, ok = d.int()
			case "aux_senses":
				r.AuxSenses, ok = d.int()
			case "used_fallback":
				r.UsedFallback, ok = d.bool()
			case "uncorrectable":
				r.Uncorrectable, ok = d.bool()
			case "fail_fast":
				r.FailFast, ok = d.bool()
			case "unmapped_pages":
				r.UnmappedPages, ok = d.int()
			case "check":
				r.Check, ok = d.str()
			case "error":
				r.Error, ok = d.str()
			}
			return ok
		})
		out = append(out, r)
		return ok
	})
	if !ok {
		return nil, false
	}
	return append(make([]ReadResult, 0, len(out)), out...), true
}

package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"sync"
	"unsafe"

	"repro/internal/fpx"
)

// This file is the single-pass codec behind DecodeStrict and
// AppendJSON. The scanner reads the canonical subset of JSON that
// encoding/json itself emits for SolveRequest, BatchSolveRequest and
// ReportRequest:
//
//   - keys known and exact-case, each at most once per object;
//   - no null;
//   - strings of printable ASCII without escapes;
//   - numbers by the JSON grammar that strconv.ParseFloat accepts, and
//     for int fields no fraction or exponent and strconv.ParseInt in
//     range;
//   - only JSON whitespace between tokens and after the value.
//
// It declines everything else, and encoding/json decodes those bytes
// instead, so every quirk and error text of the standard decoder
// (case-folded keys, null as a no-op, duplicate keys merging, escapes,
// invalid UTF-8) lives in one place. Inside the subset the two agree
// value for value; FuzzDecodeStrict checks that against encoding/json.

// maxPooled caps the bytes a pooled decoder keeps: one outsized body
// must not pin its buffers for as long as the pool stays busy.
const maxPooled = 1 << 20

// maxInterned bounds the length of a string text keeps for reuse, so a
// pooled decoder holds at most len(decoder.names)·maxInterned bytes of
// them.
const maxInterned = 32

// decoder is DecodeStrict's pooled state: the body buffer, the scan
// cursor, scratch slices that collect array elements before one
// exact-size copy, and the short strings text decoded last.
type decoder struct {
	buf     bytes.Buffer
	data    []byte
	pos     int
	items   []SolveItem
	reports []DeviceReport
	dps     []DesignPoint

	// names holds the last short strings text copied out of a body, the
	// oldest at next; they outlive the request, as immutable strings
	// may. A batch repeats a handful of design-point and solver names
	// in every item, and text hands out the held copy instead of
	// allocating another.
	names [8]string
	next  int
}

var decoders = sync.Pool{New: func() any { return new(decoder) }}

// release empties the scratch slices, so decoded values they still
// reference are not kept alive by the pool, and pools the decoder
// unless any buffer outgrew maxPooled.
func (d *decoder) release() {
	d.data = nil
	d.items = reset(d.items)
	d.reports = reset(d.reports)
	d.dps = reset(d.dps)
	if d.buf.Cap() > maxPooled || oversized(d.items) || oversized(d.reports) || oversized(d.dps) {
		return
	}
	decoders.Put(d)
}

func reset[T any](s []T) []T {
	clear(s)
	return s[:0]
}

func oversized[T any](s []T) bool {
	var zero T
	return uintptr(cap(s))*unsafe.Sizeof(zero) > maxPooled
}

// errReader replays a body's read error after the bytes read before it.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// scan decodes d.data into dst when dst is one of the scanner's types
// and the bytes lie in its subset. Otherwise it reports false, leaving
// a scanner type zeroed for encoding/json and any other dst untouched.
func (d *decoder) scan(dst any) bool {
	switch v := dst.(type) {
	case *SolveRequest:
		return scanInto(d, v, d.solveRequest)
	case *BatchSolveRequest:
		return scanInto(d, v, d.batchSolveRequest)
	case *ReportRequest:
		return scanInto(d, v, d.reportRequest)
	}
	return false
}

func scanInto[T any](d *decoder, v *T, scan func(*T) bool) bool {
	if v == nil {
		return false
	}
	var zero T
	*v = zero
	if scan(v) && d.end() {
		return true
	}
	*v = zero
	return false
}

// keySet records which of an object's known keys were seen.
type keySet uint8

// once marks key i seen and reports whether it was unseen. A repeated
// key declines: encoding/json merges a second object into the first.
func (s *keySet) once(i uint) bool {
	fresh := *s&(1<<i) == 0
	*s |= 1 << i
	return fresh
}

func (d *decoder) solveRequest(v *SolveRequest) bool {
	var seen keySet
	var it SolveItem
	ok := d.object(func(key []byte) bool {
		if string(key) == "v" {
			return seen.once(3) && d.integer(&v.V)
		}
		return d.itemMember(key, &seen, &it)
	})
	v.Config, v.BudgetJ, v.Solver = it.Config, it.BudgetJ, it.Solver
	return ok
}

func (d *decoder) batchSolveRequest(v *BatchSolveRequest) bool {
	var seen keySet
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "v":
			return seen.once(0) && d.integer(&v.V)
		case "items":
			return seen.once(1) && collect(d, &d.items, &v.Items, func(it *SolveItem) bool {
				var seen keySet
				return d.object(func(key []byte) bool { return d.itemMember(key, &seen, it) })
			})
		}
		return false
	})
}

// itemMember scans one SolveItem member; it owns bits 0-2 of seen.
func (d *decoder) itemMember(key []byte, seen *keySet, it *SolveItem) bool {
	switch string(key) {
	case "config":
		return seen.once(0) && d.config(&it.Config)
	case "budget_j":
		return seen.once(1) && d.float(&it.BudgetJ)
	case "solver":
		return seen.once(2) && d.text(&it.Solver)
	}
	return false
}

func (d *decoder) config(p **Config) bool {
	c := new(Config)
	*p = c
	var seen keySet
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "period_s":
			return seen.once(0) && d.float(&c.PeriodS)
		case "poff_w":
			return seen.once(1) && d.floatPtr(&c.POffW)
		case "alpha":
			return seen.once(2) && d.floatPtr(&c.Alpha)
		case "design_points":
			return seen.once(3) && collect(d, &d.dps, &c.DesignPoints, func(dp *DesignPoint) bool {
				var seen keySet
				return d.object(func(key []byte) bool {
					switch string(key) {
					case "name":
						return seen.once(0) && d.text(&dp.Name)
					case "accuracy":
						return seen.once(1) && d.float(&dp.Accuracy)
					case "power_w":
						return seen.once(2) && d.float(&dp.PowerW)
					}
					return false
				})
			})
		}
		return false
	})
}

func (d *decoder) reportRequest(v *ReportRequest) bool {
	var seen keySet
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "v":
			return seen.once(0) && d.integer(&v.V)
		case "reports":
			return seen.once(1) && collect(d, &d.reports, &v.Reports, func(r *DeviceReport) bool {
				var seen keySet
				return d.object(func(key []byte) bool {
					switch string(key) {
					case "device":
						return seen.once(0) && d.integer(&r.Device)
					case "consumed_j":
						return seen.once(1) && d.float(&r.ConsumedJ)
					}
					return false
				})
			})
		}
		return false
	})
}

// collect scans an array whose elements elem decodes, gathering them in
// scratch and storing an exact-size copy in *dst; [] stores an empty
// non-nil slice, as encoding/json does.
func collect[T any](d *decoder, scratch *[]T, dst *[]T, elem func(*T) bool) bool {
	var zero T
	ok := d.array(func() bool {
		*scratch = append(*scratch, zero)
		return elem(&(*scratch)[len(*scratch)-1])
	})
	if !ok {
		return false
	}
	*dst = make([]T, len(*scratch))
	copy(*dst, *scratch)
	*scratch = reset(*scratch)
	return true
}

// object scans an object, calling member with each key while the
// cursor sits on that key's value; member reports whether it took the
// value.
func (d *decoder) object(member func(key []byte) bool) bool {
	if !d.eat('{') {
		return false
	}
	if d.eat('}') {
		return true
	}
	for {
		key, ok := d.str()
		if !ok || !d.eat(':') || !member(key) {
			return false
		}
		if !d.eat(',') {
			return d.eat('}')
		}
	}
}

// array scans an array, calling elem with the cursor on each element.
func (d *decoder) array(elem func() bool) bool {
	if !d.eat('[') {
		return false
	}
	if d.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !d.eat(',') {
			return d.eat(']')
		}
	}
}

func (d *decoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// eat consumes c after any whitespace.
func (d *decoder) eat(c byte) bool {
	d.ws()
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// end reports whether only whitespace follows the value.
func (d *decoder) end() bool {
	d.ws()
	return d.pos == len(d.data)
}

// str scans a string of printable ASCII without escapes. The bytes
// alias the body buffer.
func (d *decoder) str() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	for i := d.pos; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			s := d.data[d.pos:i]
			d.pos = i + 1
			return s, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// text stores a string value that never aliases the pooled body
// buffer: one equal to a held name shares that name's bytes, and any
// other is copied, a short copy replacing the oldest held name.
func (d *decoder) text(p *string) bool {
	s, ok := d.str()
	for i := range d.names {
		if string(s) == d.names[i] {
			*p = d.names[i]
			return ok
		}
	}
	*p = string(s)
	if len(s) <= maxInterned {
		d.names[d.next] = *p
		d.next = (d.next + 1) % len(d.names)
	}
	return ok
}

// number scans a literal by the JSON number grammar; integral reports
// that it has no fraction or exponent.
func (d *decoder) number() (lit []byte, integral, ok bool) {
	d.ws()
	data, i := d.data, d.pos
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = digits(data, i+1)
	default:
		return nil, false, false
	}
	integral = true
	if i < len(data) && data[i] == '.' {
		j := digits(data, i+1)
		if j == i+1 {
			return nil, false, false
		}
		i, integral = j, false
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		j := digits(data, i)
		if j == i {
			return nil, false, false
		}
		i, integral = j, false
	}
	lit, d.pos = data[d.pos:i], i
	return lit, integral, true
}

func digits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// float parses as encoding/json does into a float64 field; a literal
// ParseFloat rejects (out of range) declines.
func (d *decoder) float(p *float64) bool {
	lit, _, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*p = f
	return err == nil
}

func (d *decoder) floatPtr(p **float64) bool {
	*p = new(float64)
	return d.float(*p)
}

// integer parses as encoding/json does into an int field.
func (d *decoder) integer(p *int) bool {
	lit, integral, ok := d.number()
	if !ok || !integral {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	*p = int(n)
	return err == nil
}

// AppendJSON appends v's JSON encoding to dst, byte-identical to
// json.Encoder's, trailing newline included. *BatchSolveResponse,
// *SolveResponse and *ReportResponse are written directly; every other
// type goes through encoding/json. A NaN or infinite float is an error,
// as it is for encoding/json, and returns dst unchanged.
func AppendJSON(dst []byte, v any) ([]byte, error) {
	e := encoder{b: dst}
	switch v := v.(type) {
	case *BatchSolveResponse:
		if v != nil {
			e.batchSolveResponse(v)
			return e.finish(dst)
		}
	case *SolveResponse:
		if v != nil {
			e.solveResponse(v)
			return e.finish(dst)
		}
	case *ReportResponse:
		if v != nil {
			e.b = append(e.b, `{"v":`...)
			e.b = strconv.AppendInt(e.b, int64(v.V), 10)
			e.b = append(e.b, `,"accepted":`...)
			e.b = strconv.AppendInt(e.b, int64(v.Accepted), 10)
			e.b = append(e.b, '}')
			return e.finish(dst)
		}
	}
	buf := bytes.NewBuffer(dst)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return dst, err
	}
	return buf.Bytes(), nil
}

// encoder appends JSON to b; err holds the first unencodable value.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) finish(dst []byte) ([]byte, error) {
	if e.err != nil {
		return dst, e.err
	}
	return append(e.b, '\n'), nil
}

func (e *encoder) batchSolveResponse(v *BatchSolveResponse) {
	e.b = append(e.b, `{"v":`...)
	e.b = strconv.AppendInt(e.b, int64(v.V), 10)
	e.b = append(e.b, `,"results":`...)
	if v.Results == nil {
		e.b = append(e.b, "null}"...)
		return
	}
	e.b = append(e.b, '[')
	for i := range v.Results {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		r := &v.Results[i]
		e.b = append(e.b, '{')
		if r.Solve != nil {
			e.b = append(e.b, `"solve":`...)
			e.solveResponse(r.Solve)
		}
		if r.Error != nil {
			if r.Solve != nil {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, `"error":{"code":`...)
			e.str(r.Error.Code)
			e.b = append(e.b, `,"message":`...)
			e.str(r.Error.Message)
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, "]}"...)
}

func (e *encoder) solveResponse(v *SolveResponse) {
	e.b = append(e.b, `{"v":`...)
	e.b = strconv.AppendInt(e.b, int64(v.V), 10)
	e.b = append(e.b, `,"allocation":{"active_s":`...)
	if v.Allocation.ActiveS == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i, f := range v.Allocation.ActiveS {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.float(f)
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, `,"off_s":`...)
	e.float(v.Allocation.OffS)
	e.b = append(e.b, `,"dead_s":`...)
	e.float(v.Allocation.DeadS)
	e.b = append(e.b, `},"energy_j":`...)
	e.float(v.EnergyJ)
	e.b = append(e.b, `,"expected_accuracy":`...)
	e.float(v.ExpectedAccuracy)
	e.b = append(e.b, '}')
}

// float formats as encoding/json's float64 encoder does: the shortest
// representation, 'e' notation below 1e-6 and from 1e21, with e-07
// cleaned to e-7.
func (e *encoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); !fpx.Zero(abs) && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// str appends safe ASCII directly and leaves every string that needs
// escaping (HTML characters, quotes, control bytes, non-ASCII) to
// encoding/json.
func (e *encoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			raw, _ := json.Marshal(s) // a string always encodes
			e.b = append(e.b, raw...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

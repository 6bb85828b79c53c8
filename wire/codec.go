package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/bits"
	"strconv"
	"sync"
	"unsafe"

	reap "repro"
	"repro/internal/fpx"
)

// This file is the single-pass codec behind DecodeStrict and the
// response appenders (AppendSolve, AppendBatchSolve, AppendJSON). The
// scanner reads the canonical subset of JSON that encoding/json itself
// emits for SolveRequest, BatchSolveRequest and ReportRequest:
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
//
// The scanner reads each number once: while it checks the grammar it
// folds up to 19 significant digits into a uint64 mantissa and a
// decimal exponent. A float literal with all its significant digits
// folded and a decimal exponent within ±19 is converted right there,
// rounded to nearest with ties to even, bit-identical to
// strconv.ParseFloat (TestFloatMatchesParseFloat checks over a million
// literals). That is 49,151 of the 49,152 floats in 4,096
// solve-distinct-shaped items; a longer mantissa or a larger exponent
// still goes to strconv.ParseFloat. An int field takes the mantissa
// itself when it fits and strconv.ParseInt's verdict otherwise.
//
// The encoder writes the solve answers from what reap.Solve and
// reap.SolveBatch returned, building no response struct. It writes a
// whole-number float below 2^53 in magnitude, other than −0, with
// strconv.AppendInt: its digits are the shortest form json.Encoder
// would write. Every other float with 1e-6 ≤ |f| < 1e21 goes through
// the shortest formatter in float.go, which writes strconv's 'f' bytes
// for it; −0 and the 'e' range outside still go through
// strconv.AppendFloat.

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

// maxDigits is how many significant digits a uint64 mantissa holds
// whatever they are: 10^19 − 1 < 2^64.
const maxDigits = 19

// maxExp bounds the exponent field number reads: a larger one is far
// outside the range float converts and goes to strconv.
const maxExp = 1 << 16

// number is one scanned literal. When exact, its value is
// ±mant·10^exp10; otherwise it has more than maxDigits significant
// digits or an exponent field above maxExp, and only lit is kept.
type number struct {
	lit      []byte
	mant     uint64
	exp10    int
	sig      int  // significant digits folded into mant
	neg      bool // a leading '-'
	integral bool // no fraction or exponent
	exact    bool
}

// number scans a literal by the JSON number grammar, folding its
// significant digits into a mantissa and a decimal exponent as it
// checks them, so the literal is read once.
func (d *decoder) number() (n number, ok bool) {
	d.ws()
	data, i := d.data, d.pos
	if i < len(data) && data[i] == '-' {
		n.neg = true
		i++
	}
	n.exact = true
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = n.fold(data, i, false)
	default:
		return n, false
	}
	n.integral = true
	if i < len(data) && data[i] == '.' {
		j := n.fold(data, i+1, true)
		if j == i+1 {
			return n, false
		}
		i, n.integral = j, false
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		neg := i < len(data) && data[i] == '-'
		if neg || i < len(data) && data[i] == '+' {
			i++
		}
		exp, j := 0, i
		for ; j < len(data) && '0' <= data[j] && data[j] <= '9'; j++ {
			if exp < maxExp {
				exp = exp*10 + int(data[j]-'0')
			}
		}
		if j == i {
			return n, false
		}
		if exp >= maxExp {
			n.exact = false
		}
		if neg {
			exp = -exp
		}
		i, n.integral, n.exp10 = j, false, n.exp10+exp
	}
	n.lit, d.pos = data[d.pos:i], i
	return n, true
}

// fold scans the digits from data[i] and returns the index past them.
// It adds significant digits to n.mant while it holds fewer than
// maxDigits and clears n.exact if more follow; in a fraction (frac)
// each digit also lowers n.exp10 by one.
func (n *number) fold(data []byte, i int, frac bool) int {
	j := i
	if n.sig == 0 {
		for j < len(data) && data[j] == '0' {
			j++ // a leading zero is not significant
		}
	}
	mant, nd := n.mant, n.sig
	for ; j < len(data) && nd < maxDigits; j++ {
		c := data[j] - '0'
		if c > 9 {
			break
		}
		mant, nd = mant*10+uint64(c), nd+1
	}
	if k := digits(data, j); k > j {
		n.exact, j = false, k
	}
	n.mant, n.sig = mant, nd
	if frac {
		n.exp10 -= j - i
	}
	return j
}

func digits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// pow10 holds every power of ten a uint64 holds.
var pow10 = [maxDigits + 1]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// float converts an exact literal with |exp10| ≤ 19 to the nearest
// float64, ties to even, and reports false for any other.
//
// Then 10^|exp10| fits a uint64, so the value is one 128-bit product
// mant·10^exp10, or the 128-bit mant·2^s over 10^-exp10 with s chosen
// so the quotient has 63 or 64 bits. Either way the top 64 bits and a
// sticky bit for the rest (the product's low bits, the quotient's
// remainder) hold all that rounding to 53 bits needs. Every result
// lies between 1e-19 and 1e38, far inside the normal range.
func (n *number) float() (float64, bool) {
	if !n.exact {
		return 0, false
	}
	var sign uint64
	if n.neg {
		sign = 1 << 63
	}
	if n.mant == 0 {
		return math.Float64frombits(sign), true
	}
	if n.exp10 < -maxDigits || n.exp10 > maxDigits {
		return 0, false
	}
	var m uint64  // the value's top 64 bits, bit 63 set
	var e2 int    // value ≈ m·2^e2
	var tail bool // whether any bit below m is set
	if n.exp10 >= 0 {
		hi, lo := bits.Mul64(n.mant, pow10[n.exp10])
		if hi == 0 {
			z := bits.LeadingZeros64(lo)
			m, e2 = lo<<z, -z
		} else {
			z := bits.LeadingZeros64(hi)
			m, e2, tail = hi<<z|lo>>(64-z), 64-z, lo<<z != 0
		}
	} else {
		div := pow10[-n.exp10]
		// mant < 2^len(mant) and div ≥ 2^(len(div)−1), so the quotient
		// lies in (2^62, 2^64) and hi < div, as Div64 requires.
		s := 63 - bits.Len64(n.mant) + bits.Len64(div)
		var hi, lo uint64
		if s < 64 {
			hi, lo = n.mant>>(64-s), n.mant<<s
		} else {
			hi = n.mant << (s - 64)
		}
		q, r := bits.Div64(hi, lo, div)
		// A 63-bit quotient shifts up one place; the bit that opens is
		// 0, and the remainder it stands for is less than two of it,
		// which cannot carry the rounding bits past half.
		z := bits.LeadingZeros64(q)
		m, e2, tail = q<<z, -s-z, r != 0
	}
	const drop = 64 - 53
	const half = 1 << (drop - 1)
	mant, rest := m>>drop, m&(1<<drop-1)
	if rest > half || rest == half && (tail || mant&1 == 1) {
		mant++
		if mant == 1<<53 {
			mant, e2 = mant>>1, e2+1
		}
	}
	// mant·2^(e2+drop) is 1.f·2^(e2+drop+52); 1023 biases the exponent.
	exp := uint64(e2 + drop + 52 + 1023)
	return math.Float64frombits(sign | exp<<52 | mant&(1<<52-1)), true
}

// float parses as encoding/json does into a float64 field: an exact
// literal within 10^±19 converts itself, any other goes to
// strconv.ParseFloat, and one that ParseFloat rejects (out of range)
// declines.
func (d *decoder) float(p *float64) bool {
	n, ok := d.number()
	if !ok {
		return false
	}
	if f, ok := n.float(); ok {
		*p = f
		return true
	}
	f, err := strconv.ParseFloat(string(n.lit), 64)
	*p = f
	return err == nil
}

func (d *decoder) floatPtr(p **float64) bool {
	*p = new(float64)
	return d.float(*p)
}

// integer parses as encoding/json does into an int field: the mantissa
// itself when it fits, strconv.ParseInt's verdict on any other.
func (d *decoder) integer(p *int) bool {
	n, ok := d.number()
	if !ok || !n.integral {
		return false
	}
	limit := uint64(math.MaxInt)
	if n.neg {
		limit++ // −MinInt
	}
	if n.exact && n.mant <= limit {
		i := int(n.mant)
		if n.neg {
			i = -i
		}
		*p = i
		return true
	}
	i, err := strconv.ParseInt(string(n.lit), 10, strconv.IntSize)
	*p = int(i)
	return err == nil
}

// AppendJSON appends v's JSON encoding to dst, byte-identical to
// json.Encoder's, trailing newline included. *ReportResponse is written
// directly; every other type goes through encoding/json. A NaN or
// infinite float is an error, as it is for encoding/json, and returns
// dst unchanged.
func AppendJSON(dst []byte, v any) ([]byte, error) {
	if v, ok := v.(*ReportResponse); ok && v != nil {
		e := encoder{b: dst}
		e.b = append(e.b, `{"v":`...)
		e.b = strconv.AppendInt(e.b, int64(v.V), 10)
		e.b = append(e.b, `,"accepted":`...)
		e.b = strconv.AppendInt(e.b, int64(v.Accepted), 10)
		e.b = append(e.b, '}')
		return e.finish(dst)
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

// AppendSolve appends the /v1/solve answer for allocation a solved
// under cfg: json.Encoder's bytes for NewSolveResponse(cfg, a),
// trailing newline included. A NaN or infinite float is an error and
// returns dst unchanged.
func AppendSolve(dst []byte, cfg reap.Config, a reap.Allocation) ([]byte, error) {
	e := encoder{b: dst}
	e.solve(cfg, a)
	return e.finish(dst)
}

// AppendBatchSolve appends the /v1/batch-solve answer to reqs, where
// results[i] answers reqs[i]: json.Encoder's bytes for a
// BatchSolveResponse whose items are NewSolveResponse(reqs[i].Config,
// results[i].Allocation) or AsError(results[i].Err), trailing newline
// included. A NaN or infinite float is an error and returns dst
// unchanged.
func AppendBatchSolve(dst []byte, reqs []reap.Request, results []reap.Result) ([]byte, error) {
	e := encoder{b: dst}
	e.b = append(e.b, `{"v":`...)
	e.b = strconv.AppendInt(e.b, Version, 10)
	e.b = append(e.b, `,"results":[`...)
	for i, res := range results {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		if res.Err != nil {
			we := AsError(res.Err)
			e.b = append(e.b, `{"error":{"code":`...)
			e.str(we.Code)
			e.b = append(e.b, `,"message":`...)
			e.str(we.Message)
			e.b = append(e.b, "}}"...)
			continue
		}
		e.b = append(e.b, `{"solve":`...)
		e.solve(reqs[i].Config, res.Allocation)
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, "]}"...)
	return e.finish(dst)
}

// solve writes the SolveResponse NewSolveResponse(cfg, a) would build.
func (e *encoder) solve(cfg reap.Config, a reap.Allocation) {
	e.b = append(e.b, `{"v":`...)
	e.b = strconv.AppendInt(e.b, Version, 10)
	e.b = append(e.b, `,"allocation":{"active_s":`...)
	if len(a.Active) == 0 {
		e.b = append(e.b, "null"...) // FromAllocation's copy of an empty Active is nil
	} else {
		e.b = append(e.b, '[')
		for i, f := range a.Active {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.float(f)
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, `,"off_s":`...)
	e.float(a.Off)
	e.b = append(e.b, `,"dead_s":`...)
	e.float(a.Dead)
	e.b = append(e.b, `},"energy_j":`...)
	e.float(a.Energy(cfg))
	e.b = append(e.b, `,"expected_accuracy":`...)
	e.float(a.ExpectedAccuracy(cfg))
	e.b = append(e.b, '}')
}

// float formats as encoding/json's float64 encoder does: the shortest
// representation, 'e' notation below 1e-6 and from 1e21, with e-07
// cleaned to e-7. A whole number below 2^53 other than −0, whose
// shortest form is its digits, is written as an integer, and every
// other float of the plain range by appendShortest.
func (e *encoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	abs := math.Abs(f)
	if abs < 1<<53 {
		if i := int64(f); fpx.Eq(float64(i), f) && (i != 0 || !math.Signbit(f)) {
			e.b = strconv.AppendInt(e.b, i, 10)
			return
		}
	}
	if abs >= 1e-6 && abs < 1e21 {
		e.b = appendShortest(e.b, f)
		return
	}
	format := byte('e')
	if fpx.Zero(abs) {
		format = 'f' // −0
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

package wire_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"unsafe"

	reap "repro"
	"repro/wire"
)

// scannerTypes are the request types DecodeStrict scans itself; every
// other type goes straight to encoding/json.
var scannerTypes = []struct {
	name string
	new  func() any
}{
	{"solve", func() any { return new(wire.SolveRequest) }},
	{"batch", func() any { return new(wire.BatchSolveRequest) }},
	{"report", func() any { return new(wire.ReportRequest) }},
}

// oracle is DecodeStrict's contract in encoding/json alone: one value,
// unknown fields rejected, nothing but whitespace after it.
func oracle(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if err := dec.Decode(&json.RawMessage{}); err != io.EOF {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// agree decodes body with DecodeStrict and with the oracle into fresh
// values and reports any difference in the accept/reject decision, the
// error code, or the decoded value.
func agree(newV func() any, body []byte) (accepted bool, err error) {
	got, want := newV(), newV()
	gerr := wire.DecodeStrict(bytes.NewReader(body), got)
	werr := oracle(body, want)
	if (gerr == nil) != (werr == nil) {
		return false, fmt.Errorf("DecodeStrict err %v, encoding/json err %v", gerr, werr)
	}
	var we *wire.Error
	if gerr != nil && (!errors.As(gerr, &we) || we.Code != wire.CodeMalformed) {
		return false, fmt.Errorf("err %v, want *wire.Error with CodeMalformed", gerr)
	}
	if !reflect.DeepEqual(got, want) {
		return false, fmt.Errorf("DecodeStrict decoded %+v, encoding/json %+v", got, want)
	}
	return gerr == nil, nil
}

// Where a decode case lands for its own type.
const (
	scanned  = iota // in the scanner's subset
	fallback        // declined by the scanner, accepted by encoding/json
	rejected        // malformed
)

// decodeCases are inputs on both sides of the scanner's subset. Each
// must reach the same outcome and value through DecodeStrict as through
// encoding/json, and want pins where it lands for its own type.
var decodeCases = []struct {
	name, typ, body string
	want            int
}{
	{"unknown_field", "solve", `{"v":1,"budget_j":1,"bogus":true}`, rejected},
	{"syntax_error", "solve", `{"v":1,`, rejected},
	{"wrong_type", "solve", `{"v":"one"}`, rejected},
	{"trailing_data", "solve", `{"v":1,"budget_j":1}{"v":1}`, rejected},

	{"canonical/solve", "solve", `{"v":1,"config":{"period_s":1800,"poff_w":0,"alpha":2,"design_points":[{"name":"DP1","accuracy":0.9,"power_w":0.002},{"accuracy":0.5,"power_w":0.001}]},"budget_j":5.25,"solver":"plan"}`, scanned},
	{"canonical/batch", "batch", `{"v":1,"items":[{"budget_j":1},{"config":{"alpha":0.5},"budget_j":2,"solver":"simplex"}]}`, scanned},
	{"canonical/report", "report", `{"v":1,"reports":[{"device":3,"consumed_j":0.25},{"device":4,"consumed_j":1e-7}]}`, scanned},
	{"whitespace", "batch", " \t\r\n{ \"v\" : 1 , \"items\" : [ { \"budget_j\" : 1 } , { } ] } \n", scanned},
	{"empty_object", "solve", `{}`, scanned},
	{"empty_body", "report", ``, rejected},
	{"not_an_object", "batch", `[1]`, rejected},

	{"null/body", "solve", `null`, fallback},
	{"null/config", "solve", `{"v":1,"config":null,"budget_j":1}`, fallback},
	{"null/v", "report", `{"v":null,"reports":[]}`, fallback},
	{"null/items", "batch", `{"v":1,"items":null}`, fallback},
	{"null/item", "batch", `{"v":1,"items":[null,{"budget_j":1}]}`, fallback},
	{"null/design_point", "solve", `{"v":1,"config":{"design_points":[null]}}`, fallback},
	{"null/device", "report", `{"v":1,"reports":[{"device":null,"consumed_j":1}]}`, fallback},
	{"null/alpha", "batch", `{"v":1,"items":[{"config":{"alpha":null}}]}`, fallback},

	{"dup/budget", "solve", `{"v":1,"budget_j":1,"budget_j":2}`, fallback},
	{"dup/config", "solve", `{"v":1,"config":{"alpha":1},"config":{"period_s":2}}`, fallback},
	{"dup/item_config", "batch", `{"v":1,"items":[{"config":{"alpha":1},"config":{"poff_w":0}}]}`, fallback},
	{"dup/items", "batch", `{"v":1,"items":[{"budget_j":1}],"items":[{"solver":"plan"}]}`, fallback},
	{"dup/alpha", "solve", `{"config":{"alpha":1,"alpha":3}}`, fallback},
	{"dup/name", "solve", `{"config":{"design_points":[{"name":"a","name":"b"}]}}`, fallback},
	{"dup/v", "report", `{"v":2,"v":1,"reports":[]}`, fallback},
	{"dup/device", "report", `{"v":1,"reports":[{"device":1,"device":2}]}`, fallback},

	{"fold/V", "solve", `{"V":1,"budget_j":1}`, fallback},
	{"fold/Items", "batch", `{"v":1,"Items":[{"Budget_J":1}]}`, fallback},
	{"fold/REPORTS", "report", `{"v":1,"REPORTS":[{"Device":1}]}`, fallback},

	{"escape/value", "solve", `{"v":1,"solver":"pl\u0061n"}`, fallback},
	{"escape/key", "report", `{"\u0076":1}`, fallback},
	{"escape/quote", "solve", `{"solver":"a\"b"}`, fallback},
	{"nonascii/value", "solve", `{"config":{"design_points":[{"name":"DPé"}]}}`, fallback},
	{"nonascii/key", "solve", `{"vé":1}`, rejected},
	{"invalid_utf8", "solve", "{\"solver\":\"pl\xffn\"}", fallback},
	{"control_char", "solve", "{\"solver\":\"a\x01b\"}", rejected},
	{"del_char", "solve", "{\"solver\":\"a\x7fb\"}", fallback},

	{"int/1.0", "solve", `{"v":1.0}`, rejected},
	{"int/1e2", "report", `{"v":1e2}`, rejected},
	{"int/-0", "batch", `{"v":-0}`, scanned},
	{"int/overflow", "solve", `{"v":99999999999999999999}`, rejected},
	{"device/1.0", "report", `{"reports":[{"device":1.0}]}`, rejected},
	{"device/1e2", "report", `{"reports":[{"device":1e2}]}`, rejected},
	{"device/-0", "report", `{"reports":[{"device":-0}]}`, scanned},
	{"device/overflow", "report", `{"reports":[{"device":99999999999999999999}]}`, rejected},
	{"device/min_int64", "report", `{"reports":[{"device":-9223372036854775808}]}`, scanned},
	{"float/1e2", "solve", `{"budget_j":1e2}`, scanned},
	{"float/-0", "solve", `{"budget_j":-0}`, scanned},
	{"float/big_int", "solve", `{"budget_j":99999999999999999999}`, scanned},
	{"float/1e400", "solve", `{"budget_j":1e400}`, rejected},
	{"float/1e-400", "report", `{"reports":[{"consumed_j":1e-400}]}`, scanned},
	{"float/consumed_1e400", "report", `{"reports":[{"consumed_j":-1e400}]}`, rejected},
	{"float/exp_case", "batch", `{"items":[{"budget_j":1.5E+3}]}`, scanned},
	{"number/leading_zero", "solve", `{"budget_j":01}`, rejected},
	{"number/bare_dot", "solve", `{"budget_j":1.}`, rejected},
	{"number/plus", "solve", `{"budget_j":+1}`, rejected},
	{"number/minus", "solve", `{"budget_j":-}`, rejected},
	{"number/exp", "solve", `{"budget_j":1e}`, rejected},
	{"number/hex", "solve", `{"budget_j":0x10}`, rejected},
	{"number/nan", "solve", `{"budget_j":NaN}`, rejected},
	{"number/string", "solve", `{"budget_j":"1"}`, rejected},

	{"empty_array/items", "batch", `{"v":1,"items":[]}`, scanned},
	{"absent_array/items", "batch", `{"v":1}`, scanned},
	{"empty_array/design_points", "solve", `{"config":{"design_points":[]}}`, scanned},
	{"empty_array/reports", "report", `{"v":1,"reports":[]}`, scanned},
	{"absent_array/reports", "report", `{"v":1}`, scanned},

	{"trailing/value", "report", `{"v":1}{"v":1}`, rejected},
	{"trailing/garbage", "batch", `{"v":1} x`, rejected},
	{"trailing/comma", "batch", `{"v":1,"items":[{},]}`, rejected},
	{"trailing/whitespace", "report", "{\"v\":1} \r\n\t", scanned},
	{"leading_bom", "solve", "\xef\xbb\xbf{\"v\":1}", rejected},
}

// TestDecodeStrictRejects runs every decode case through each scanner
// type, comparing DecodeStrict with encoding/json, and checks where the
// case lands for its own type.
func TestDecodeStrictRejects(t *testing.T) {
	for _, tc := range decodeCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, typ := range scannerTypes {
				accepted, err := agree(typ.new, []byte(tc.body))
				if err != nil {
					t.Fatalf("%s %s: %v", typ.name, tc.body, err)
				}
				if typ.name != tc.typ {
					continue
				}
				got := rejected
				if accepted {
					got = fallback
					if wire.Scans([]byte(tc.body), typ.new()) {
						got = scanned
					}
				}
				if got != tc.want {
					t.Fatalf("%s %s: lands %d, want %d (0 scanned, 1 fallback, 2 rejected)", typ.name, tc.body, got, tc.want)
				}
			}
		})
	}
}

// numberEdges are literals on each side of the scanner's own number
// conversion: signed zeros, the integer path's 2^53, the encoder's 'e'
// switches, the 19-digit and 10^±19 limits, an exact tie, exponents
// only strconv handles and the int64 limits.
var numberEdges = []string{
	"0", "-0", "0e5", "-0.0", "0.000123", "3600", "9007199254740991", "9007199254740992",
	"9007199254740994", "9007199254740993", "45035996273704965e-1", "1e-7", "1e21",
	"9999999999999999999", "99999999999999999999", "1e19", "1e-19", "1e20", "1e-20",
	"1e400", "1e-400", "9223372036854775807", "-9223372036854775808", "9223372036854775808",
}

// FuzzDecodeStrict mutates the decode cases and the number edges and
// requires DecodeStrict to agree with encoding/json on every scanner
// type.
func FuzzDecodeStrict(f *testing.F) {
	for _, tc := range decodeCases {
		f.Add([]byte(tc.body))
	}
	for _, lit := range numberEdges {
		f.Add([]byte(`{"v":1,"items":[{"config":{"alpha":` + lit + `},"budget_j":` + lit + `}]}`))
		f.Add([]byte(`{"v":1,"reports":[{"device":` + lit + `,"consumed_j":` + lit + `}]}`))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, typ := range scannerTypes {
			if _, err := agree(typ.new, body); err != nil {
				t.Fatalf("%s %q: %v", typ.name, body, err)
			}
		}
	})
}

// TestScannerTakesMarshalOutput: what json.Marshal writes for the
// scanner's types, with strings it does not escape, is the scanner's
// subset, and decodes back to the value marshalled.
func TestScannerTakesMarshalOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	num := func() float64 {
		return math.Ldexp(rng.Float64(), rng.Intn(200)-100) * float64(1-2*rng.Intn(2))
	}
	name := func() string {
		const chars = "azAZ09 _-.:;!#$%()*+,/=?@[]^{|}~'`"
		b := make([]byte, rng.Intn(6))
		for i := range b {
			b[i] = chars[rng.Intn(len(chars))]
		}
		return string(b)
	}
	item := func() wire.SolveItem {
		it := wire.SolveItem{BudgetJ: num()}
		if rng.Intn(2) == 0 {
			it.Solver = name()
		}
		if rng.Intn(2) == 0 {
			c := &wire.Config{PeriodS: num()}
			if rng.Intn(2) == 0 {
				c.POffW = ptr(num())
			}
			if rng.Intn(2) == 0 {
				c.Alpha = ptr(num())
			}
			for n := rng.Intn(4); n > 0; n-- {
				c.DesignPoints = append(c.DesignPoints, wire.DesignPoint{Name: name(), Accuracy: num(), PowerW: num()})
			}
			it.Config = c
		}
		return it
	}
	for i := 0; i < 500; i++ {
		it := item()
		batch := &wire.BatchSolveRequest{V: rng.Int(), Items: make([]wire.SolveItem, rng.Intn(4))}
		for j := range batch.Items {
			batch.Items[j] = item()
		}
		report := &wire.ReportRequest{V: -rng.Int(), Reports: make([]wire.DeviceReport, rng.Intn(4))}
		for j := range report.Reports {
			report.Reports[j] = wire.DeviceReport{Device: rng.Intn(1 << 20), ConsumedJ: num()}
		}
		for _, v := range []any{
			&wire.SolveRequest{V: rng.Intn(3), Config: it.Config, BudgetJ: it.BudgetJ, Solver: it.Solver},
			batch, report,
		} {
			raw, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			back := reflect.New(reflect.TypeOf(v).Elem()).Interface()
			if !wire.Scans(raw, back) {
				t.Fatalf("scanner declined json.Marshal output %s", raw)
			}
			if !reflect.DeepEqual(back, v) {
				t.Fatalf("scanner decoded %s as %+v, want %+v", raw, back, v)
			}
		}
	}
}

// TestDecodeStrictReadError: a body that fails mid-read is malformed,
// whichever side of the value the failure lands.
func TestDecodeStrictReadError(t *testing.T) {
	boom := errors.New("connection reset")
	for _, body := range []string{`{"v":1,"rep`, `{"v":1}`} {
		var req wire.ReportRequest
		err := wire.DecodeStrict(io.MultiReader(strings.NewReader(body), iotest.ErrReader(boom)), &req)
		var we *wire.Error
		if !errors.As(err, &we) || we.Code != wire.CodeMalformed {
			t.Fatalf("%s then read error: err %v, want CodeMalformed", body, err)
		}
	}
}

// TestDecodedStringsAreCopies: a decoded string must not alias the
// pooled body buffer the next request overwrites.
func TestDecodedStringsAreCopies(t *testing.T) {
	var first wire.SolveRequest
	if err := wire.DecodeStrict(strings.NewReader(`{"v":1,"solver":"plan"}`), &first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		var other wire.SolveRequest
		if err := wire.DecodeStrict(strings.NewReader(`{"v":1,"solver":"XXXX"}`), &other); err != nil {
			t.Fatal(err)
		}
	}
	if first.Solver != "plan" {
		t.Fatalf("first request's solver reads %q after later decodes", first.Solver)
	}
}

// TestDecoderSharesRepeatedNames: a name the decoder copied out of the
// body shortly before is handed out again rather than copied anew, so
// a batch whose items repeat their design-point names pays for each
// name once, not once per item.
func TestDecoderSharesRepeatedNames(t *testing.T) {
	item := `{"config":{"design_points":[{"name":"DP1","accuracy":0.9,"power_w":0.001},` +
		`{"name":"DP2","accuracy":0.8,"power_w":0.0005}]},"budget_j":1,"solver":"plan"}`
	body := []byte(`{"v":1,"items":[` + item + `,` + item + `]}`)
	var req wire.BatchSolveRequest
	if !wire.Scans(body, &req) {
		t.Fatal("the scanner declined a canonical body")
	}
	first, second := req.Items[0], req.Items[1]
	if unsafe.StringData(first.Solver) != unsafe.StringData(second.Solver) {
		t.Errorf("solver %q copied twice", first.Solver)
	}
	for k, dp := range first.Config.DesignPoints {
		other := second.Config.DesignPoints[k]
		if dp.Name != other.Name || unsafe.StringData(dp.Name) != unsafe.StringData(other.Name) {
			t.Errorf("design point %d: names %q and %q not shared", k, dp.Name, other.Name)
		}
	}
}

// TestDecodeStrictConcurrent: goroutines sharing the decoder pool each
// get their own body's values back.
func TestDecodeStrictConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			want := &wire.SolveRequest{V: wire.Version, BudgetJ: float64(g) / 8, Solver: fmt.Sprintf("solver-%d", g)}
			body, err := json.Marshal(want)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 200; i++ {
				var got wire.SolveRequest
				if err := wire.DecodeStrict(bytes.NewReader(body), &got); err != nil || !reflect.DeepEqual(&got, want) {
					t.Errorf("goroutine %d decoded %+v (err %v), want %+v", g, got, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// encodeFloats straddle every boundary of the encoder's float paths
// (float_test.go lists them).
var encodeFloats = wire.EncodeFloats

// encodeStrings need every escape encoding/json applies.
var encodeStrings = []string{
	"", "infeasible", "budget must be >= 0 & < 1e9", `quote " and \ backslash`,
	"<script>", "é and 日本", "bad \xff utf8", "line\nbreak\ttab\x01", "  ", "del\x7f",
}

// randomResults returns up to five solver results and the requests they
// answer: errors drawn from encodeStrings, as wire errors and as
// solver errors for AsError to classify, empty Active slices, and
// encodeFloats among the times and powers, so the integer path and the
// 'e' switch of the float format are both exercised.
func randomResults(rng *rand.Rand) ([]reap.Request, []reap.Result) {
	pick := func() float64 {
		if rng.Intn(3) == 0 {
			return encodeFloats[rng.Intn(len(encodeFloats))]
		}
		return math.Ldexp(rng.Float64(), rng.Intn(160)-80) * float64(1-2*rng.Intn(2))
	}
	text := func() string { return encodeStrings[rng.Intn(len(encodeStrings))] }
	n := rng.Intn(6)
	reqs, results := make([]reap.Request, n), make([]reap.Result, n)
	for i := range results {
		dps := make([]reap.DesignPoint, rng.Intn(6))
		for j := range dps {
			dps[j] = reap.DesignPoint{Accuracy: rng.Float64(), Power: pick()}
		}
		reqs[i] = reap.Request{Config: reap.Config{Period: 3600, POff: pick(), DPs: dps}, Budget: pick()}
		switch rng.Intn(4) {
		case 0:
			results[i].Err = &wire.Error{Code: text(), Message: text()}
		case 1:
			results[i].Err = fmt.Errorf("%w: %s", reap.ErrInfeasible, text())
		default:
			a := reap.Allocation{Active: make([]float64, len(dps)), Off: pick(), Dead: pick()}
			for j := range a.Active {
				a.Active[j] = pick()
			}
			results[i].Allocation = a
		}
	}
	return reqs, results
}

// batchResponse is the answer AppendBatchSolve must encode, built item
// by item with NewSolveResponse and AsError.
func batchResponse(reqs []reap.Request, results []reap.Result) *wire.BatchSolveResponse {
	resp := &wire.BatchSolveResponse{V: wire.Version, Results: make([]wire.SolveResult, len(results))}
	for i, res := range results {
		if res.Err != nil {
			resp.Results[i].Error = wire.AsError(res.Err)
			continue
		}
		resp.Results[i].Solve = wire.NewSolveResponse(reqs[i].Config, res.Allocation)
	}
	return resp
}

func encoderBytes(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// matchesEncoder checks that appendTo, given a prefix, wrote
// json.Encoder's bytes for v after it, or, where json.Encoder fails,
// failed too and returned the prefix alone. It reports whether v
// encoded.
func matchesEncoder(t *testing.T, v any, appendTo func([]byte) ([]byte, error)) bool {
	t.Helper()
	prefix := []byte("prefix")
	want, wantErr := encoderBytes(v)
	got, err := appendTo(prefix[:len(prefix):len(prefix)])
	switch {
	case wantErr != nil && err == nil:
		t.Fatalf("json.Encoder failed (%v) but the appender wrote\n%s", wantErr, got[len(prefix):])
	case wantErr != nil && string(got) != string(prefix):
		t.Fatalf("appender returned %q on error, want dst unchanged", got)
	case wantErr == nil && err != nil:
		t.Fatalf("appender failed (%v) where json.Encoder wrote\n%s", err, want)
	case wantErr == nil && !bytes.Equal(got, append(prefix, want...)):
		t.Fatalf("appender wrote\n%s\njson.Encoder wrote\n%s", got[len(prefix):], want)
	}
	return wantErr == nil
}

// TestAppendSolveMatchesEncoder: AppendSolve and AppendBatchSolve write
// json.Encoder's bytes for the responses NewSolveResponse and AsError
// build from the same results, and fail where it fails.
func TestAppendSolveMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	encoded, failed := 0, 0
	check := func(reqs []reap.Request, results []reap.Result) {
		for i, res := range results {
			if res.Err == nil {
				cfg := reqs[i].Config
				matchesEncoder(t, wire.NewSolveResponse(cfg, res.Allocation), func(dst []byte) ([]byte, error) {
					return wire.AppendSolve(dst, cfg, res.Allocation)
				})
			}
		}
		if matchesEncoder(t, batchResponse(reqs, results), func(dst []byte) ([]byte, error) {
			return wire.AppendBatchSolve(dst, reqs, results)
		}) {
			encoded++
		} else {
			failed++
		}
	}
	check(nil, nil) // an empty batch answers "results":[]
	paper := reap.Config{Period: 3600, POff: 50e-6, Alpha: 1, DPs: reap.PaperDesignPoints()}
	for _, f := range encodeFloats {
		a := reap.Allocation{Active: []float64{f, -f, 0, 1, f}, Off: f, Dead: -f}
		check([]reap.Request{{Config: paper}}, []reap.Result{{Allocation: a}})
	}
	for i := 0; i < 2000; i++ {
		check(randomResults(rng))
	}
	t.Logf("%d batches encoded, %d failed", encoded, failed)
	if encoded < 1000 || failed == 0 {
		t.Fatalf("%d batches encoded and %d failed: the random results miss a path", encoded, failed)
	}
}

// TestAppendJSONMatchesEncoder: AppendJSON writes json.Encoder's bytes
// exactly, for the type it encodes itself and for the rest.
func TestAppendJSONMatchesEncoder(t *testing.T) {
	values := []any{
		&wire.ReportResponse{V: 1, Accepted: 64},
		&wire.ReportResponse{V: -1, Accepted: math.MinInt},
		(*wire.ReportResponse)(nil),
		&wire.StatsResponse{V: 1, Devices: 3, TotalBatteryJ: 1e-9},
		&wire.ErrorResponse{V: 1, Error: wire.Error{Code: "x", Message: "<&>"}},
		&wire.SolveResponse{},
		&wire.BatchSolveResponse{V: 1, Results: []wire.SolveResult{{}}},
	}
	for _, v := range values {
		matchesEncoder(t, v, func(dst []byte) ([]byte, error) { return wire.AppendJSON(dst, v) })
	}
}

// TestAppendRejectsNonFinite: a NaN or ±Inf anywhere in an answer fails
// every appender as it fails json.Encoder, and leaves dst as it was.
func TestAppendRejectsNonFinite(t *testing.T) {
	paper := reap.Config{Period: 3600, POff: 50e-6, Alpha: 1, DPs: reap.PaperDesignPoints()}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, a := range []reap.Allocation{
			{Active: []float64{1, 2, f, 0, 0}},
			{Active: []float64{0, 0, 0, 0, 0}, Off: f},
			{Dead: f},
		} {
			reqs := []reap.Request{{Config: paper}, {Config: paper}}
			results := []reap.Result{{Err: reap.ErrInfeasible}, {Allocation: a}}
			appenders := map[string]func([]byte) ([]byte, error){
				"AppendSolve": func(dst []byte) ([]byte, error) { return wire.AppendSolve(dst, paper, a) },
				"AppendBatchSolve": func(dst []byte) ([]byte, error) {
					return wire.AppendBatchSolve(dst, reqs, results)
				},
				"AppendJSON": func(dst []byte) ([]byte, error) {
					return wire.AppendJSON(dst, wire.NewSolveResponse(paper, a))
				},
			}
			for name, appendTo := range appenders {
				dst := []byte("kept")
				got, err := appendTo(dst)
				if err == nil {
					t.Fatalf("%s accepted %v in %+v", name, f, a)
				}
				if string(got) != "kept" {
					t.Fatalf("%s returned %q on error, want dst unchanged", name, got)
				}
			}
		}
	}
}

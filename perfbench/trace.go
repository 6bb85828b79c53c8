package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/wire"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer. Spans of one request share Req; Body is the distinct
// request body the request carried (-1 when none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Body   int    `json:"body"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e3 } // µs

// tracer keeps spans in memory until the run ends. A run that is not
// traced keeps it off, and the load loop records nothing.
type tracer struct {
	on    bool
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	nextID int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) ns(tm time.Time) int64 { return tm.Sub(t.epoch).Nanoseconds() }

// id reserves a span id, so children can name a parent that has not
// ended yet.
func (t *tracer) id() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

func (t *tracer) add(s span) {
	if s.ID == 0 {
		s.ID = t.id()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
}

func (t *tracer) addAll(ss []span) {
	for _, s := range ss {
		t.add(s)
	}
}

// selfTimes is each span's duration minus the durations of its
// children. Children either nest in their parent's interval or, for the
// parts of SolveBatch, were timed by separate calls on the same items.
func (t *tracer) selfTimes() map[int]float64 {
	childSum := map[int]float64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			childSum[s.Parent] += s.dur()
		}
	}
	self := make(map[int]float64, len(t.spans))
	for _, s := range t.spans {
		self[s.ID] = s.dur() - childSum[s.ID]
	}
	return self
}

// byBody is, per distinct body, the median over repetitions of the
// named spans' duration (or self time), in µs.
func (t *tracer) byBody(name string, self bool) map[int]float64 {
	var st map[int]float64
	if self {
		st = t.selfTimes()
	}
	per := map[int][]float64{}
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		v := s.dur()
		if self {
			v = st[s.ID]
		}
		per[s.Body] = append(per[s.Body], v)
	}
	out := make(map[int]float64, len(per))
	for b, vs := range per {
		out[b] = median(vs)
	}
	return out
}

// perBody is byBody averaged over the bodies that recorded the span,
// scaled to every replayed body (bodies without the span count as 0).
func (t *tracer) perBody(name string, self bool) float64 {
	bodies := map[int]bool{}
	for _, s := range t.spans {
		if s.Name == "op" {
			bodies[s.Body] = true
		}
	}
	if len(bodies) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range t.byBody(name, self) {
		sum += v
	}
	return sum / float64(len(bodies))
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perLayerMetrics names every per-layer metric with its unit. A traced
// run reports all of them; a layer the workload does not exercise
// reads 0.
var perLayerMetrics = [][2]string{
	{"http.transport_us", "us"}, {"service.handler_us", "us"}, {"service.route_us", "us"}, {"service.residual_us", "us"},
	{"wire.decode_us", "us"}, {"wire.decode_allocs", "count"}, {"wire.convert_us", "us"},
	{"wire.build_us", "us"}, {"wire.build_allocs", "count"}, {"wire.encode_us", "us"},
	{"wire.req_bytes", "B"}, {"wire.resp_bytes", "B"},
	{"reap.fingerprint_us", "us"}, {"reap.solvebatch_us", "us"}, {"reap.report_us", "us"},
	{"core.compile_us", "us"}, {"core.solve_ns", "ns"}, {"core.memo_miss_share", "share"},
	{"journal.append_us", "us"}, {"replicate.ship_us", "us"},
	{"journal.appends_per_req", "count"}, {"journal.compactions", "count"},
	{"journal.snapshot_ms", "ms"}, {"journal.snapshot_bytes", "B"},
	{"replicate.follower_cpu_s", "s"},
	{"sim.consumption_share", "share"}, {"reap.fleet_step_us", "us"}, {"solar.trace_ms", "ms"},
	{"sim.allocs_per_device_hour", "count"}, {"gc.cycles_per_kop", "count"},
	{"host.probe_ms", "ms"},
}

func (r *run) zeroLayers() {
	for _, m := range perLayerMetrics {
		r.set(m[0], m[1], 0)
	}
}

// measureAppend times journal.Store.Append of a record the size of one
// 64-report batch, in a throwaway journal on the same disk as the
// daemon's, with the default (interval) policy: no sync per append.
func (r *run) measureAppend() error {
	dir, err := os.MkdirTemp(r.outDir, "append-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := journal.Open(dir, journal.Options{RetainSegments: 4})
	if err != nil {
		return err
	}
	if err := st.Start(func([]byte) error { return nil }); err != nil {
		return err
	}
	// The report event layout: format, op, count, then per report a
	// device uvarint and 8 bytes of consumed energy.
	payload := []byte{1, 1}
	payload = binary.AppendUvarint(payload, batchItems)
	for i := 0; i < batchItems; i++ {
		payload = binary.AppendUvarint(payload, uint64(daemonDevices-1-i*4093))
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(0.5))
	}
	var ds []float64
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		if _, err := st.Append(payload); err != nil {
			st.Close()
			return err
		}
		ds = append(ds, us(time.Since(t0)))
	}
	r.set("journal.append_us", "us", median(ds))
	return st.Close()
}

// route times one request with an empty batch through h: the
// endpoint's fixed cost in mux, middleware, admission and the envelope.
// The envelope's own decode and encode are timed as its children, so
// its self time is what the endpoint costs beyond the other layers.
func (r *run) route(h http.Handler, path string, empty []byte, dst, resp any, opID, body int) error {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(empty))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	t1 := time.Now()
	if rec.Code != http.StatusOK {
		return fmt.Errorf("empty batch on %s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	if err := wire.DecodeStrict(bytes.NewReader(empty), dst); err != nil {
		return err
	}
	t2 := time.Now()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		return err
	}
	t3 := time.Now()
	id := r.tr.id()
	r.tr.add(span{ID: id, Parent: opID, Req: opID, Body: body, Name: "service.route", Start: r.tr.ns(t0), End: r.tr.ns(t1)})
	r.tr.add(span{Parent: id, Req: opID, Body: body, Name: "route.decode", Start: r.tr.ns(t1), End: r.tr.ns(t2)})
	r.tr.add(span{Parent: id, Req: opID, Body: body, Name: "route.encode", Start: r.tr.ns(t2), End: r.tr.ns(t3)})
	return nil
}

// ledgerRow is one layer's self time per request.
type ledgerRow struct {
	Layer   string  `json:"layer"`
	SelfUS  float64 `json:"self_us_per_req"`
	PerOpUS float64 `json:"self_us_per_op"`
	Share   float64 `json:"share_of_handler"`
}

// writeLedger reconciles the replayed layers with the in-process
// handler, the handler with the loopback p50, names the residual, and
// states the tracing overhead; then writes the ledger and every span.
func (r *run) writeLedger(lay *layerTimes, plain, traced *loadRun) error {
	// Loopback latency per sampled body, against the handler for the
	// same body.
	hByBody := r.tr.byBody("service.handler", false)
	latByBody := map[int][]float64{}
	for i, k := range traced.bodyOf {
		if _, ok := hByBody[k]; ok {
			latByBody[k] = append(latByBody[k], traced.lat[i]*1e3)
		}
	}
	var transport []float64
	for k, lats := range latByBody {
		transport = append(transport, median(lats)-hByBody[k])
	}
	lay.transport = mean(transport)
	r.set("http.transport_us", "us", lay.transport)

	sum := 0.0
	for i := range lay.layers {
		row := &lay.layers[i]
		row.PerOpUS = row.SelfUS / float64(lay.perOp)
		row.Share = row.SelfUS / lay.handlerUS
		sum += row.SelfUS
	}
	// The loopback figures are unscaled, like the in-process replay they
	// are set against; the tracing overhead compares two phases, each
	// scaled by the probes taken between its segments.
	loopP50 := median(traced.lat)
	p50 := func(lr *loadRun) float64 { return median(lr.lat) * probeRefMS / hostTime(lr.probes) }
	ops := func(lr *loadRun) float64 {
		return float64(lr.ops) / lr.wall.Seconds() * hostTime(lr.probes) / probeRefMS
	}
	ratio := sum / lay.handlerUS
	ledger := map[string]any{
		"workload": r.workload, "seed": r.seed, "ops_per_request": lay.perOp,
		"note":   "per request; each layer's self time is the mean over sampled bodies of its median over repetitions, replayed in process at GOMAXPROCS=1",
		"layers": lay.layers, "layers_sum_us": sum, "handler_us": lay.handlerUS,
		"layers_vs_handler": ratio, "reconciled_within_15pct": math.Abs(ratio-1) <= 0.15,
		"residual": map[string]any{
			"name": "service.residual_us", "us": lay.residualUS, "share_of_handler": lay.residualUS / lay.handlerUS,
			"covers": lay.residualCovers,
		},
		"loopback": map[string]any{
			"p50_ms": loopP50, "handler_share_of_p50": lay.handlerUS / (1e3 * loopP50),
			"http.transport_us": lay.transport,
		},
		"tracing_overhead": map[string]any{
			"p50_ms_untraced": p50(plain), "p50_ms_traced": p50(traced), "p50_delta_ms": p50(traced) - p50(plain),
			"ops_per_s_untraced": ops(plain), "ops_per_s_traced": ops(traced),
			"ops_per_s_delta_share": ops(traced)/ops(plain) - 1,
		},
	}
	r.diag["ledger"] = ledger
	printLedger(r.workload, lay, sum)
	return r.writeTrace(ledger)
}

func (r *run) writeTrace(ledger map[string]any) error {
	dir := filepath.Join(r.outDir, "trace", fmt.Sprintf("%s-seed%d", r.workload, r.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(ledger, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "ledger.json"), raw, 0o644); err != nil {
		return err
	}
	r.diag["trace_dir"] = dir
	return r.tr.write(filepath.Join(dir, "spans.jsonl"))
}

func printLedger(workload string, lay *layerTimes, sum float64) {
	rows := append([]ledgerRow(nil), lay.layers...)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].SelfUS > rows[j].SelfUS })
	w := os.Stderr
	fmt.Fprintf(w, "cost ledger, %s (µs per request of %d ops)\n", workload, lay.perOp)
	for _, row := range rows {
		fmt.Fprintf(w, "  %-22s %9.1f  %5.1f%%\n", row.Layer, row.SelfUS, 100*row.Share)
	}
	fmt.Fprintf(w, "  %-22s %9.1f  %5.1f%%  (handler %.1f µs)\n", "sum of layers", sum, 100*sum/lay.handlerUS, lay.handlerUS)
	fmt.Fprintf(w, "  %-22s %9.1f  %5.1f%%\n", "service.residual", lay.residualUS, 100*lay.residualUS/lay.handlerUS)
	fmt.Fprintf(w, "  %-22s %9.1f\n", "http.transport", lay.transport)
}

package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"

	reap "repro"
	"repro/wire"
)

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.Devices == 0 {
		cfg.Devices = 16
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return svc
}

// do sends one request through the service handler. body is marshalled
// unless it is already a []byte (raw payloads for malformed-input
// cases).
func do(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var raw []byte
	switch b := body.(type) {
	case nil:
	case []byte:
		raw = b
	default:
		var err error
		if raw, err = json.Marshal(b); err != nil {
			t.Fatalf("marshal request: %v", err)
		}
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeErrCode(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var resp wire.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding error response %q: %v", rec.Body.String(), err)
	}
	return resp.Error.Code
}

func TestSolveHappyPath(t *testing.T) {
	svc := newTestService(t, Config{})
	h := svc.Handler()

	rec := do(t, h, http.MethodPost, "/v1/solve", &wire.SolveRequest{V: wire.Version, BudgetJ: 5})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp wire.SolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if resp.V != wire.Version {
		t.Errorf("response v = %d, want %d", resp.V, wire.Version)
	}
	if resp.EnergyJ > 5+1e-9 {
		t.Errorf("allocation spends %.6f J over the 5 J budget", resp.EnergyJ)
	}
	if resp.ExpectedAccuracy <= 0 {
		t.Errorf("expected accuracy %.6f, want positive for a mid-range budget", resp.ExpectedAccuracy)
	}
	cfg := (*wire.Config)(nil).ToReap()
	var total float64
	for _, a := range resp.Allocation.ActiveS {
		total += a
	}
	total += resp.Allocation.OffS + resp.Allocation.DeadS
	if diff := total - cfg.Period; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("allocation covers %.9f s of a %.1f s period", total, cfg.Period)
	}
	if got := svc.Stats().Solves; got != 1 {
		t.Errorf("stats solves = %d, want 1", got)
	}
}

func TestSolveRejectsBadRequests(t *testing.T) {
	svc := newTestService(t, Config{})
	h := svc.Handler()

	cases := []struct {
		name     string
		body     any
		wantCode string
	}{
		{"malformed_json", []byte(`{"v":1,`), wire.CodeMalformed},
		{"unknown_field", []byte(`{"v":1,"budget_j":1,"bogus":true}`), wire.CodeMalformed},
		{"trailing_data", []byte(`{"v":1,"budget_j":1}{"again":true}`), wire.CodeMalformed},
		{"unknown_version", &wire.SolveRequest{V: wire.Version + 7, BudgetJ: 1}, wire.CodeUnknownVersion},
		{"missing_version", []byte(`{"budget_j":1}`), wire.CodeUnknownVersion},
		{"negative_budget", &wire.SolveRequest{V: wire.Version, BudgetJ: -1}, wire.CodeBudgetNegative},
		{"unknown_solver", &wire.SolveRequest{V: wire.Version, BudgetJ: 1, Solver: "nope"}, wire.CodeUnknownSolver},
		{"negative_period", []byte(`{"v":1,"budget_j":5,"config":{"period_s":-60}}`), wire.CodeInvalidConfig},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, h, http.MethodPost, "/v1/solve", tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400; body %s", rec.Code, rec.Body)
			}
			if got := decodeErrCode(t, rec); got != tc.wantCode {
				t.Errorf("error code = %q, want %q", got, tc.wantCode)
			}
		})
	}
}

// TestSolveInfeasibleMapsTo422: the plan answers every valid request,
// so no HTTP solve produces these sentinels, but the status mapping
// holds: an infeasible or failed solve is 422, not the client's 400 or
// a 500.
func TestSolveInfeasibleMapsTo422(t *testing.T) {
	for _, sentinel := range []error{reap.ErrInfeasible, reap.ErrSolverFailure} {
		werr := wire.AsError(fmt.Errorf("solve: %w", sentinel))
		if got := statusFor(werr); got != http.StatusUnprocessableEntity {
			t.Errorf("%v (code %q): status %d, want 422", sentinel, werr.Code, got)
		}
	}
}

// TestSolveAcceptsOnlyThePlan: wire v1 solves on the plan, so a request
// naming no solver or "plan" is answered byte for byte alike, and any
// other name — the iterative solvers' included — is refused with
// unknown_solver: 400 on /v1/solve, a per-item result in a batch.
func TestSolveAcceptsOnlyThePlan(t *testing.T) {
	svc := newTestService(t, Config{})
	h := svc.Handler()
	names := []string{"", "plan", "simplex", "enumerate", "no-such-solver"}
	accepted := func(name string) bool { return name == "" || name == "plan" }

	var want []byte
	for _, name := range names {
		rec := do(t, h, http.MethodPost, "/v1/solve", &wire.SolveRequest{V: wire.Version, BudgetJ: 5, Solver: name})
		if !accepted(name) {
			if rec.Code != http.StatusBadRequest || decodeErrCode(t, rec) != wire.CodeUnknownSolver {
				t.Errorf("/v1/solve %q: status %d, body %s; want 400 unknown_solver", name, rec.Code, rec.Body)
			}
			continue
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("/v1/solve %q: status %d, body %s", name, rec.Code, rec.Body)
		}
		if want == nil {
			want = rec.Body.Bytes()
		} else if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("/v1/solve %q answers %s, the unnamed solver %s", name, rec.Body, want)
		}
	}

	items := make([]wire.SolveItem, len(names))
	for i, name := range names {
		items[i] = wire.SolveItem{BudgetJ: 5, Solver: name}
	}
	rec := do(t, h, http.MethodPost, "/v1/batch-solve", &wire.BatchSolveRequest{V: wire.Version, Items: items})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: status %d, body %s", rec.Code, rec.Body)
	}
	var resp wire.BatchSolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	var solo wire.SolveResponse
	if err := json.Unmarshal(want, &solo); err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		res := resp.Results[i]
		switch {
		case !accepted(name):
			if res.Solve != nil || res.Error == nil || res.Error.Code != wire.CodeUnknownSolver {
				t.Errorf("batch item %q: %+v, want an unknown_solver error", name, res)
			}
		case res.Solve == nil:
			t.Errorf("batch item %q: error %+v, want a solve", name, res.Error)
		case !reflect.DeepEqual(*res.Solve, solo):
			t.Errorf("batch item %q: %+v, /v1/solve answers %+v", name, *res.Solve, solo)
		}
	}
}

func TestBatchSolvePerItemResults(t *testing.T) {
	svc := newTestService(t, Config{})
	rec := do(t, svc.Handler(), http.MethodPost, "/v1/batch-solve", &wire.BatchSolveRequest{
		V: wire.Version,
		Items: []wire.SolveItem{
			{BudgetJ: 3},
			{BudgetJ: -1},
			{BudgetJ: 8},
			{BudgetJ: 5, Config: &wire.Config{PeriodS: -3600}},
		},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp wire.BatchSolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(resp.Results))
	}
	for _, i := range []int{0, 2} {
		if resp.Results[i].Solve == nil || resp.Results[i].Error != nil {
			t.Errorf("item %d: want a solve, got error %+v", i, resp.Results[i].Error)
		}
	}
	for i, code := range map[int]string{1: wire.CodeBudgetNegative, 3: wire.CodeInvalidConfig} {
		if resp.Results[i].Error == nil || resp.Results[i].Error.Code != code {
			t.Errorf("item %d: want %s error, got %+v", i, code, resp.Results[i])
		}
	}
	if got := svc.Stats().BatchItems; got != 4 {
		t.Errorf("stats batch items = %d, want 4", got)
	}
}

func TestReportEndpoint(t *testing.T) {
	svc := newTestService(t, Config{BatteryJ: 50, CapacityJ: 100})
	h := svc.Handler()

	rec := do(t, h, http.MethodPost, "/v1/report", &wire.ReportRequest{
		V:       wire.Version,
		Reports: []wire.DeviceReport{{Device: 0, ConsumedJ: 0.5}, {Device: 15, ConsumedJ: 0.25}},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp wire.ReportResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if resp.Accepted != 2 {
		t.Errorf("accepted = %d, want 2", resp.Accepted)
	}

	rec = do(t, h, http.MethodPost, "/v1/report", &wire.ReportRequest{
		V:       wire.Version,
		Reports: []wire.DeviceReport{{Device: 16, ConsumedJ: 0.1}},
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("out-of-range device: status = %d, want 400", rec.Code)
	}
	if got := decodeErrCode(t, rec); got != wire.CodeUnknownDevice {
		t.Errorf("error code = %q, want %q", got, wire.CodeUnknownDevice)
	}
}

func TestTelemetryStream(t *testing.T) {
	svc := newTestService(t, Config{BatteryJ: 20, CapacityJ: 100})
	h := svc.Handler()

	harvest := 2.0
	consumed := 0.05
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	events := []wire.TelemetryEvent{
		{V: wire.Version, Device: 1, HarvestJ: &harvest},
		{V: wire.Version, Device: 2, ConsumedJ: &consumed, HarvestJ: &harvest},
	}
	for _, ev := range events {
		if err := enc.Encode(&ev); err != nil {
			t.Fatal(err)
		}
	}
	buf.WriteString(`{"v":1,"device":3,"bogus":true}` + "\n") // malformed, stream must continue
	badDev := wire.TelemetryEvent{V: wire.Version, Device: 99, HarvestJ: &harvest}
	if err := enc.Encode(&badDev); err != nil {
		t.Fatal(err)
	}

	rec := do(t, h, http.MethodPost, "/v1/telemetry", buf.Bytes())
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var results []wire.TelemetryResult
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var res wire.TelemetryResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("decoding result line %q: %v", sc.Text(), err)
		}
		results = append(results, res)
	}
	if len(results) != 4 {
		t.Fatalf("got %d result lines, want 4: %+v", len(results), results)
	}
	for i := range 2 {
		if results[i].Error != nil || results[i].Allocation == nil {
			t.Errorf("event %d: want allocation, got %+v", i, results[i])
		}
	}
	if results[2].Error == nil || results[2].Error.Code != wire.CodeMalformed {
		t.Errorf("malformed line: got %+v, want %s", results[2], wire.CodeMalformed)
	}
	if results[3].Error == nil || results[3].Error.Code != wire.CodeUnknownDevice {
		t.Errorf("unknown device: got %+v, want %s", results[3], wire.CodeUnknownDevice)
	}
	stats := svc.Stats()
	if stats.Steps != 2 || stats.Reports != 1 {
		t.Errorf("stats steps/reports = %d/%d, want 2/1", stats.Steps, stats.Reports)
	}
}

// TestTelemetryLineIsOneValue: a telemetry line holds exactly one JSON
// value, like every other body. A line with a second value or trailing
// garbage answers malformed_request and steps no device.
func TestTelemetryLineIsOneValue(t *testing.T) {
	svc := newTestService(t, Config{BatteryJ: 20, CapacityJ: 100})
	body := `{"v":1,"device":1,"harvest_j":2}{"v":1,"device":2,"harvest_j":2}` + "\n" +
		`{"v":1,"device":3,"harvest_j":2} garbage` + "\n"
	rec := do(t, svc.Handler(), http.MethodPost, "/v1/telemetry", []byte(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	sc := bufio.NewScanner(rec.Body)
	lines := 0
	for ; sc.Scan(); lines++ {
		var res wire.TelemetryResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("decoding result line %q: %v", sc.Text(), err)
		}
		if res.Error == nil || res.Error.Code != wire.CodeMalformed || res.Allocation != nil {
			t.Errorf("line %d: got %s, want %s and no allocation", lines, sc.Text(), wire.CodeMalformed)
		}
	}
	if lines != 2 {
		t.Errorf("got %d result lines, want 2", lines)
	}
	if steps := svc.Stats().Steps; steps != 0 {
		t.Errorf("stats steps = %d, want 0", steps)
	}
}

func TestRateLimitRefusesWithRetryAfter(t *testing.T) {
	svc := newTestService(t, Config{RatePerSec: 1, Burst: 2})
	h := svc.Handler()

	for i := range 2 {
		rec := do(t, h, http.MethodPost, "/v1/solve", &wire.SolveRequest{V: wire.Version, BudgetJ: 1})
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d within burst: status = %d, body %s", i, rec.Code, rec.Body)
		}
	}
	rec := do(t, h, http.MethodPost, "/v1/solve", &wire.SolveRequest{V: wire.Version, BudgetJ: 1})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over burst: status = %d, want 429; body %s", rec.Code, rec.Body)
	}
	if got := decodeErrCode(t, rec); got != wire.CodeRateLimited {
		t.Errorf("error code = %q, want %q", got, wire.CodeRateLimited)
	}
	secs, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want a whole number of seconds ≥ 1", rec.Header().Get("Retry-After"))
	}
	if got := svc.Stats().RateLimited; got != 1 {
		t.Errorf("stats rate limited = %d, want 1", got)
	}

	// Tenants are isolated: a fresh tenant has its own bucket.
	req := httptest.NewRequest(http.MethodPost, "/v1/solve",
		bytes.NewReader(mustMarshal(t, &wire.SolveRequest{V: wire.Version, BudgetJ: 1})))
	req.Header.Set("X-Tenant", "other")
	other := httptest.NewRecorder()
	h.ServeHTTP(other, req)
	if other.Code != http.StatusOK {
		t.Errorf("fresh tenant: status = %d, want 200", other.Code)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestBatchChargesPerItem(t *testing.T) {
	svc := newTestService(t, Config{RatePerSec: 1, Burst: 4})
	h := svc.Handler()

	batch := func(n int) *httptest.ResponseRecorder {
		items := make([]wire.SolveItem, n)
		for i := range items {
			items[i].BudgetJ = 1
		}
		return do(t, h, http.MethodPost, "/v1/batch-solve", &wire.BatchSolveRequest{V: wire.Version, Items: items})
	}
	if rec := batch(4); rec.Code != http.StatusOK {
		t.Fatalf("batch within burst: status = %d, body %s", rec.Code, rec.Body)
	}
	if rec := batch(2); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("batch over burst: status = %d, want 429", rec.Code)
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	svc := newTestService(t, Config{})
	h := svc.Handler()
	svc.Drain()

	rec := do(t, h, http.MethodPost, "/v1/solve", &wire.SolveRequest{V: wire.Version, BudgetJ: 1})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("solve while draining: status = %d, want 503", rec.Code)
	}
	if got := decodeErrCode(t, rec); got != wire.CodeDraining {
		t.Errorf("error code = %q, want %q", got, wire.CodeDraining)
	}
	if rec := do(t, h, http.MethodGet, "/healthz", nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: status = %d, want 503", rec.Code)
	}
	if !svc.Stats().Draining {
		t.Error("stats draining = false after Drain")
	}
}

// TestServerDrainWaitsForInFlight pins the SIGTERM semantics end to end
// over a real listener: a request already past admission completes with
// 200 while Drain is underway, Drain returns only after it finishes,
// and the listener is closed afterwards.
func TestServerDrainWaitsForInFlight(t *testing.T) {
	svc := newTestService(t, Config{})
	entered := make(chan struct{})
	release := make(chan struct{})
	svc.testHookSolve = func() {
		entered <- struct{}{}
		<-release
	}
	srv := NewServer(svc, "127.0.0.1:0")
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()

	type result struct {
		status int
		err    error
	}
	clientDone := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+srv.Addr()+"/v1/solve", "application/json",
			bytes.NewReader(mustMarshal(t, &wire.SolveRequest{V: wire.Version, BudgetJ: 2})))
		if err != nil {
			clientDone <- result{err: err}
			return
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		clientDone <- result{status: resp.StatusCode}
	}()

	<-entered // the request is in flight, holding inside the handler
	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- srv.Drain(ctx)
	}()

	// Drain must not complete while the request is held.
	select {
	case err := <-drainDone:
		t.Fatalf("drain returned %v with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if res := <-clientDone; res.err != nil || res.status != http.StatusOK {
		t.Fatalf("in-flight request: status %d, err %v; want 200", res.status, res.err)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve after drain: %v", err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/healthz"); err == nil {
		t.Error("listener still accepting connections after drain")
	}
}

// lineWriter is a ResponseWriter that hands each written NDJSON line to
// the test as it is produced — the handler-level stand-in for a
// streaming client, which lets a test act between two events of one
// stream. TestTelemetryStreamFullDuplex covers the same exchange over
// a real socket.
type lineWriter struct {
	header http.Header
	buf    bytes.Buffer
	lines  chan string
}

func newLineWriter() *lineWriter {
	return &lineWriter{header: make(http.Header), lines: make(chan string, 16)}
}

func (w *lineWriter) Header() http.Header { return w.header }
func (w *lineWriter) WriteHeader(int)     {}
func (w *lineWriter) Flush()              {}
func (w *lineWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	for {
		raw := w.buf.Bytes()
		i := bytes.IndexByte(raw, '\n')
		if i < 0 {
			return len(p), nil
		}
		w.lines <- string(raw[:i])
		w.buf.Next(i + 1)
	}
}

// TestTelemetryDrainFinishesCurrentEvent drains mid-stream and checks
// the contract: the event in flight is answered, then the handler
// closes the stream instead of abandoning the client or processing a
// backlog.
func TestTelemetryDrainFinishesCurrentEvent(t *testing.T) {
	svc := newTestService(t, Config{BatteryJ: 20, CapacityJ: 100})
	h := svc.Handler()

	pr, pw := io.Pipe()
	w := newLineWriter()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/telemetry", pr))
	}()

	harvest := 1.5
	send := func(device int) {
		raw := mustMarshal(t, &wire.TelemetryEvent{V: wire.Version, Device: device, HarvestJ: &harvest})
		if _, err := pw.Write(append(raw, '\n')); err != nil {
			t.Fatalf("writing event: %v", err)
		}
	}
	readResult := func() wire.TelemetryResult {
		select {
		case line := <-w.lines:
			var res wire.TelemetryResult
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("decoding %q: %v", line, err)
			}
			return res
		case <-time.After(10 * time.Second):
			t.Fatal("no result line")
			panic("unreachable")
		}
	}

	send(0)
	if res := readResult(); res.Error != nil || res.Allocation == nil {
		t.Fatalf("pre-drain event: %+v", res)
	}

	// Drain while the next event is half read. The pipe hands the first
	// half over only once the handler reads again, which it does after
	// answering event 0 and finding the service not draining; draining
	// any earlier could close the stream before event 1 and leave the
	// second write blocked.
	raw := append(mustMarshal(t, &wire.TelemetryEvent{V: wire.Version, Device: 1, HarvestJ: &harvest}), '\n')
	if _, err := pw.Write(raw[:len(raw)/2]); err != nil {
		t.Fatalf("writing event: %v", err)
	}
	svc.Drain()

	// The next event was already accepted by the open stream: it must be
	// answered, after which the handler returns even though the request
	// body is still open — the "finish current event, then close"
	// contract SIGTERM relies on.
	if _, err := pw.Write(raw[len(raw)/2:]); err != nil {
		t.Fatalf("writing event: %v", err)
	}
	if res := readResult(); res.Error != nil || res.Allocation == nil {
		t.Fatalf("in-flight event during drain: %+v", res)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler kept the stream open after drain")
	}
	pw.Close()

	// A fresh stream against the draining service is refused outright.
	rec := do(t, h, http.MethodPost, "/v1/telemetry", []byte(""))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("new stream while draining: status = %d, want 503", rec.Code)
	}
}

// TestShardForCoversFleet: for every fleet shape up to 40 devices and 9
// shards, the shards tile the fleet in order with sizes that differ by
// at most one, and shardFor maps each device to the shard holding it.
func TestShardForCoversFleet(t *testing.T) {
	for devices := 1; devices <= 40; devices++ {
		for shards := 1; shards <= 9; shards++ {
			svc := newTestService(t, Config{Devices: devices, Shards: shards})
			lo, smallest, largest := 0, devices, 0
			for i, sh := range svc.shards {
				if sh.lo != lo || sh.hi <= sh.lo {
					t.Fatalf("%d devices over %d shards: shard %d holds [%d, %d) after %d",
						devices, shards, i, sh.lo, sh.hi, lo)
				}
				smallest, largest = min(smallest, sh.hi-sh.lo), max(largest, sh.hi-sh.lo)
				lo = sh.hi
			}
			if lo != devices || largest-smallest > 1 {
				t.Fatalf("%d devices over %d shards: tiling ends at %d with sizes %d..%d",
					devices, shards, lo, smallest, largest)
			}
			for device := 0; device < devices; device++ {
				sh, err := svc.shardFor(device)
				if err != nil {
					t.Fatalf("device %d: %v", device, err)
				}
				if device < sh.lo || device >= sh.hi {
					t.Fatalf("%d devices over %d shards: device %d maps to shard [%d, %d)",
						devices, shards, device, sh.lo, sh.hi)
				}
			}
		}
	}
	svc := newTestService(t, Config{Devices: 10, Shards: 3})
	for _, device := range []int{-1, 10, 1 << 20} {
		if _, err := svc.shardFor(device); err == nil {
			t.Errorf("device %d: want unknown-device error", device)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Devices: 0}); err == nil {
		t.Error("Devices=0: want error")
	}
	if _, err := New(Config{Devices: -3}); err == nil {
		t.Error("negative devices: want error")
	}
}

// TestBatchSolveSetsContentLength: over a real listener, a 64-item
// batch answer goes out with its length up front, not chunked.
func TestBatchSolveSetsContentLength(t *testing.T) {
	svc := newTestService(t, Config{})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	items := make([]wire.SolveItem, 64)
	for i := range items {
		items[i].BudgetJ = float64(i) / 6
	}
	body := mustMarshal(t, &wire.BatchSolveRequest{V: wire.Version, Items: items})
	resp, err := http.Post(srv.URL+"/v1/batch-solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(raw)) {
		t.Fatalf("Transfer-Encoding %v, Content-Length %d, body %d bytes; want no transfer coding and the body's length",
			resp.TransferEncoding, resp.ContentLength, len(raw))
	}
}

// TestWriteJSONUnencodable: a response holding NaN answers 500/internal,
// not an empty 200.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, &wire.SolveResponse{V: wire.Version, EnergyJ: math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if got := decodeErrCode(t, rec); got != wire.CodeInternal {
		t.Fatalf("code %q, want %q", got, wire.CodeInternal)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", got, rec.Body.Len())
	}
}

package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/wire"
)

// TestTelemetryDisconnectMidStream opens real TCP telemetry streams and
// vanishes mid-line, the way battery-powered clients do: each stream
// carries one complete event and then a partial trailing line cut off
// by an abrupt close. The contract: the complete event is processed
// (steps counter moves), the partial line is never half-parsed (no
// extra step, no malformed-event error), and every handler goroutine
// winds down — an abandoned stream may not pin a goroutine.
//
// The responses are not read: the contract here is what the server
// does with a stream whose client is gone, seen through the counters
// and the goroutine count. Response framing per event is covered by
// TestTelemetryStream, the handler-level test below and, over real
// HTTP/1.1 with a client that streams and reads at once,
// TestTelemetryStreamFullDuplex.
func TestTelemetryDisconnectMidStream(t *testing.T) {
	svc := newTestService(t, Config{Devices: 8, BatteryJ: 20, CapacityJ: 100})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	baseline := runtime.NumGoroutine()

	const streams = 5
	for i := 0; i < streams; i++ {
		conn, err := net.Dial("tcp", strings.TrimPrefix(srv.URL, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "POST /v1/telemetry HTTP/1.1\r\nHost: reapd-test\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n")
		writeChunk := func(s string) {
			if _, err := fmt.Fprintf(conn, "%x\r\n%s\r\n", len(s), s); err != nil {
				t.Fatalf("stream %d: writing chunk: %v", i, err)
			}
		}
		writeChunk(fmt.Sprintf(`{"v":%d,"device":%d,"harvest_j":1.5}`+"\n", wire.Version, i))
		writeChunk(fmt.Sprintf(`{"v":%d,"device":%d,"harv`, wire.Version, i)) // the line the client died on
		_ = conn.Close()
	}

	// Every complete event stepped its device; no partial line did.
	waitFor(t, 10*time.Second, func() bool { return svc.Stats().Steps == streams }, func() string {
		return fmt.Sprintf("steps = %d, want %d (complete events only)", svc.Stats().Steps, streams)
	})

	// The handler goroutines must exit once their readers fail.
	waitFor(t, 10*time.Second, func() bool { return runtime.NumGoroutine() <= baseline+2 }, func() string {
		return fmt.Sprintf("goroutines = %d, baseline %d — telemetry handlers leaked", runtime.NumGoroutine(), baseline)
	})
}

// TestTelemetryPartialLineAnsweredPrefix is the handler-level view of
// the same disconnect, where the response stream is observable: the
// complete events are each answered, and the partial trailing line
// produces no result line at all — dropped, not misparsed as an event.
func TestTelemetryPartialLineAnsweredPrefix(t *testing.T) {
	svc := newTestService(t, Config{Devices: 8, BatteryJ: 20, CapacityJ: 100})
	h := svc.Handler()

	pr, pw := io.Pipe()
	w := newLineWriter()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/telemetry", pr))
	}()

	harvest := 2.0
	for _, device := range []int{0, 5} {
		raw := mustMarshal(t, &wire.TelemetryEvent{V: wire.Version, Device: device, HarvestJ: &harvest})
		if _, err := pw.Write(append(raw, '\n')); err != nil {
			t.Fatal(err)
		}
		select {
		case line := <-w.lines:
			var res wire.TelemetryResult
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("decoding %q: %v", line, err)
			}
			if res.Device != device || res.Error != nil || res.Allocation == nil {
				t.Fatalf("device %d answered %+v", device, res)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no result for device %d", device)
		}
	}

	// Half a line, then the connection dies.
	if _, err := pw.Write([]byte(`{"v":1,"device":3,"harv`)); err != nil {
		t.Fatal(err)
	}
	pw.CloseWithError(fmt.Errorf("client vanished"))

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler did not return after the body failed")
	}
	select {
	case line := <-w.lines:
		t.Fatalf("partial trailing line produced a result: %s", line)
	default:
	}
	if got := svc.Stats().Steps; got != 2 {
		t.Errorf("steps = %d, want 2 — the partial line must not have stepped device 3", got)
	}
}

// TestTelemetryStreamFullDuplex posts 3,000 events in one HTTP/1.1
// request and reads the answers while the body is still uploading.
// net/http's HTTP/1 server stops reading a request body once the
// handler has flushed, unless the handler enables full duplex; without
// it the stream answered only the events read before its first flush
// and then ended with a 200 and no error line.
func TestTelemetryStreamFullDuplex(t *testing.T) {
	svc := newTestService(t, Config{Devices: 8, BatteryJ: 20, CapacityJ: 100})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	const events = 3000
	var body strings.Builder
	for i := range events {
		fmt.Fprintf(&body, `{"v":%d,"device":%d,"harvest_j":1.5}`+"\n", wire.Version, i%8)
	}
	results := postTelemetry(t, srv.URL, body.String())
	if len(results) != events {
		t.Fatalf("%d result lines for %d events", len(results), events)
	}
	for i, res := range results {
		if res.Error != nil || res.Device != i%8 || res.Allocation == nil {
			t.Fatalf("event %d answered %+v", i, res)
		}
	}
	if got := svc.Stats().Steps; got != events {
		t.Errorf("steps = %d, want %d", got, events)
	}
}

// TestTelemetryOverlongLineAnswered sends a valid event, a 2 MiB line
// and another valid event. The scanner cannot hold a line over 1 MiB,
// nor find the next line past one, so the stream ends there; but it
// says why, with one malformed_request result after the first event's
// answer, instead of closing a 200 in silence.
func TestTelemetryOverlongLineAnswered(t *testing.T) {
	svc := newTestService(t, Config{Devices: 8, BatteryJ: 20, CapacityJ: 100})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	event := fmt.Sprintf(`{"v":%d,"device":1,"harvest_j":1.5}`+"\n", wire.Version)
	results := postTelemetry(t, srv.URL, event+strings.Repeat("x", 2<<20)+"\n"+event)
	if len(results) != 2 {
		t.Fatalf("%d result lines, want 2: %+v", len(results), results)
	}
	if res := results[0]; res.Error != nil || res.Device != 1 || res.Allocation == nil {
		t.Errorf("first event answered %+v", res)
	}
	if res := results[1]; res.Error == nil || res.Error.Code != wire.CodeMalformed || res.Allocation != nil {
		t.Errorf("overlong line answered %+v, want one %s error", res, wire.CodeMalformed)
	}
	if got := svc.Stats().Steps; got != 1 {
		t.Errorf("steps = %d, want 1", got)
	}
}

// postTelemetry posts body to the telemetry stream at url and returns
// the result lines of a 200 answer.
func postTelemetry(t *testing.T, url, body string) []wire.TelemetryResult {
	t.Helper()
	resp, err := http.Post(url+"/v1/telemetry", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var results []wire.TelemetryResult
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var res wire.TelemetryResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("decoding %q: %v", sc.Text(), err)
		}
		results = append(results, res)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading results: %v", err)
	}
	return results
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg func() string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg())
}

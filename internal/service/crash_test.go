package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	reap "repro"
	"repro/wire"
)

// These tests pin the crash-safety contract end to end: every mutation
// the service acknowledged over HTTP must survive an unclean process
// death (simulated by abandoning the journal without sync, exactly what
// kill -9 leaves behind) and be reconstructed on the next boot — as
// judged against an independent journal-free service fed the same
// acknowledged events.

// crashService simulates kill -9: the maintenance loop stops and the
// journal is dropped without the final compaction or sync a clean Close
// performs. Anything already acknowledged has reached the kernel and
// must survive.
func crashService(svc *Service) {
	svc.closeOnce.Do(func() {
		if svc.stop != nil {
			close(svc.stop)
		}
	})
	svc.store.Abandon()
}

// mutation is one acknowledged state change, replayable into a
// reference service.
type mutation struct {
	op        string
	device    int
	consumedJ float64
	harvestJ  float64
	alpha     float64
}

// apply drives one mutation through a service's HTTP handler and
// reports whether it was acknowledged.
func (m mutation) apply(t *testing.T, h http.Handler) bool {
	t.Helper()
	switch m.op {
	case "report":
		rec := do(t, h, http.MethodPost, "/v1/report", &wire.ReportRequest{
			V: wire.Version, Reports: []wire.DeviceReport{{Device: m.device, ConsumedJ: m.consumedJ}},
		})
		return rec.Code == http.StatusOK
	case "step":
		h2 := m.harvestJ
		raw := mustMarshal(t, &wire.TelemetryEvent{V: wire.Version, Device: m.device, HarvestJ: &h2})
		rec := do(t, h, http.MethodPost, "/v1/telemetry", append(raw, '\n'))
		if rec.Code != http.StatusOK {
			return false
		}
		var res wire.TelemetryResult
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatalf("telemetry result: %v", err)
		}
		return res.Error == nil && res.Allocation != nil
	case "alpha":
		rec := do(t, h, http.MethodPost, "/v1/alpha", &wire.AlphaRequest{
			V: wire.Version, Device: m.device, Alpha: m.alpha,
		})
		return rec.Code == http.StatusOK
	default:
		t.Fatalf("unknown mutation op %q", m.op)
		return false
	}
}

// deviceStates snapshots every controller's state under all shard
// locks — the same consistent cut compaction takes — so it is safe to
// call while a replication tailer is applying frames concurrently.
func deviceStates(t *testing.T, svc *Service) []reap.ControllerState {
	t.Helper()
	lockShards(svc.shards)
	defer unlockShards(svc.shards)
	states := make([]reap.ControllerState, svc.cfg.Devices)
	for d := range states {
		ctl, err := svc.fleet.Device(d)
		if err != nil {
			t.Fatalf("device %d: %v", d, err)
		}
		states[d] = ctl.State()
	}
	return states
}

// expectStatesEqual compares two fleets device by device. Replay and
// the snapshot codec are exact, so the comparison is bit for bit: every
// float as its IEEE-754 bits, so -0 differs from 0 — no tolerances.
func expectStatesEqual(t *testing.T, got, want []reap.ControllerState) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("fleet sizes differ: %d vs %d", len(got), len(want))
	}
	for d := range got {
		if stateBits(got[d]) != stateBits(want[d]) {
			t.Errorf("device %d: restored %+v, want %+v", d, got[d], want[d])
		}
	}
}

// stateBits is a controller state's exact identity.
func stateBits(st reap.ControllerState) [6]uint64 {
	return [6]uint64{
		math.Float64bits(st.BatteryJ), math.Float64bits(st.CarryJ),
		math.Float64bits(st.LastPlannedJ), math.Float64bits(st.LastBudgetJ),
		uint64(st.Steps), math.Float64bits(st.Alpha),
	}
}

func TestCrashRecoveryReconcilesState(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Devices: 12, Shards: 4, BatteryJ: 30, CapacityJ: 100}
	jcfg := cfg
	jcfg.JournalDir = dir

	svc := newTestService(t, jcfg)
	h := svc.Handler()

	// A history touching every pillar: multi-device report batches that
	// span shards, telemetry steps, an alpha change, more steps on top.
	muts := []mutation{
		{op: "step", device: 0, harvestJ: 2},
		{op: "step", device: 5, harvestJ: 1.5},
		{op: "report", device: 0, consumedJ: 0.25},
		{op: "step", device: 11, harvestJ: 3},
		{op: "alpha", device: 5, alpha: 0.5},
		{op: "step", device: 5, harvestJ: 2.5},
		{op: "report", device: 11, consumedJ: 0.1},
		{op: "step", device: 0, harvestJ: 0.75},
	}
	for i, m := range muts {
		if !m.apply(t, h) {
			t.Fatalf("mutation %d (%+v) not acknowledged", i, m)
		}
	}
	// One request whose reports span several shards is one journal
	// record that replays across all of them.
	rec := do(t, h, http.MethodPost, "/v1/report", &wire.ReportRequest{
		V: wire.Version,
		Reports: []wire.DeviceReport{
			{Device: 1, ConsumedJ: 0.05}, {Device: 4, ConsumedJ: 0.06},
			{Device: 7, ConsumedJ: 0.07}, {Device: 10, ConsumedJ: 0.08},
		},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("spanning report: %d %s", rec.Code, rec.Body)
	}
	reportOutOfOrderAndStopped(t, svc)

	pre := svc.Stats()
	preStates := deviceStates(t, svc)
	crashService(svc)

	restored := newTestService(t, jcfg)
	defer restored.Close()
	post := restored.Stats()

	if post.Journal == nil {
		t.Fatal("restored service reports no journal stats")
	}
	if post.Journal.Replayed == 0 {
		t.Error("restored service replayed nothing after an unclean crash")
	}
	if post.Steps != pre.Steps || post.Reports != pre.Reports || post.AlphaSets != pre.AlphaSets {
		t.Errorf("counters diverged across crash: steps %d/%d reports %d/%d alpha %d/%d",
			post.Steps, pre.Steps, post.Reports, pre.Reports, post.AlphaSets, pre.AlphaSets)
	}
	if post.TotalBatteryJ != pre.TotalBatteryJ {
		t.Errorf("total battery diverged across crash: %v != %v", post.TotalBatteryJ, pre.TotalBatteryJ)
	}
	expectStatesEqual(t, deviceStates(t, restored), preStates)

	// The reference check: a journal-free service fed the same
	// acknowledged events lands on the same state — replay is not just
	// self-consistent, it matches the semantics of the live paths.
	ref := newTestService(t, cfg)
	refH := ref.Handler()
	for i, m := range muts {
		if !m.apply(t, refH) {
			t.Fatalf("reference mutation %d not acknowledged", i)
		}
	}
	if rec := do(t, refH, http.MethodPost, "/v1/report", &wire.ReportRequest{
		V: wire.Version,
		Reports: []wire.DeviceReport{
			{Device: 1, ConsumedJ: 0.05}, {Device: 4, ConsumedJ: 0.06},
			{Device: 7, ConsumedJ: 0.07}, {Device: 10, ConsumedJ: 0.08},
		},
	}); rec.Code != http.StatusOK {
		t.Fatalf("reference spanning report: %d", rec.Code)
	}
	reportOutOfOrderAndStopped(t, ref)
	expectStatesEqual(t, deviceStates(t, restored), deviceStates(t, ref))

	// And the restored daemon is live, not a museum: it keeps serving
	// and journaling.
	if !(mutation{op: "step", device: 3, harvestJ: 1}).apply(t, restored.Handler()) {
		t.Error("restored service refused new work")
	}
}

// reportOutOfOrderAndStopped sends two report batches to a 12-device,
// 4-shard service: [10, 7, 4, 1], whose devices run down the shards
// (3, 2, 1, 0) and must apply and journal as one record, and [2, 12, 5],
// which stops at a device outside the fleet with device 2 applied and
// device 5 not.
func reportOutOfOrderAndStopped(t *testing.T, svc *Service) {
	t.Helper()
	h := svc.Handler()
	var appended uint64
	if svc.store != nil {
		appended = svc.store.Stats().Appended
	}
	rec := do(t, h, http.MethodPost, "/v1/report", &wire.ReportRequest{
		V: wire.Version,
		Reports: []wire.DeviceReport{
			{Device: 10, ConsumedJ: 0.11}, {Device: 7, ConsumedJ: 0.12},
			{Device: 4, ConsumedJ: 0.13}, {Device: 1, ConsumedJ: 0.14},
		},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("descending-shard report: %d %s", rec.Code, rec.Body)
	}
	var resp wire.ReportResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Accepted != 4 {
		t.Fatalf("descending-shard report: accepted %d (%v), want 4", resp.Accepted, err)
	}
	if svc.store != nil {
		if got := svc.store.Stats().Appended - appended; got != 1 {
			t.Errorf("descending-shard report appended %d journal records, want 1", got)
		}
	}

	before := deviceStates(t, svc)
	rec = do(t, h, http.MethodPost, "/v1/report", &wire.ReportRequest{
		V: wire.Version,
		Reports: []wire.DeviceReport{
			{Device: 2, ConsumedJ: 0.15}, {Device: 12, ConsumedJ: 0.16}, {Device: 5, ConsumedJ: 0.17},
		},
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("report stopped by an unknown device: %d %s, want 400", rec.Code, rec.Body)
	}
	if code := decodeErrCode(t, rec); code != wire.CodeUnknownDevice {
		t.Errorf("report stopped by an unknown device: code %q, want %q", code, wire.CodeUnknownDevice)
	}
	after := deviceStates(t, svc)
	if stateBits(after[2]) == stateBits(before[2]) {
		t.Error("device 2, ahead of the unknown device, was not applied")
	}
	if stateBits(after[5]) != stateBits(before[5]) {
		t.Error("device 5, behind the unknown device, was applied")
	}
}

// TestCrashRecoveryUnderConcurrentTraffic is the -race version: several
// writers mutate disjoint device ranges through the handler while the
// journal serializes appends, then the process "dies" and the reboot
// must agree with a reference fed each writer's acknowledged sequence.
func TestCrashRecoveryUnderConcurrentTraffic(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Devices: 16, Shards: 4, BatteryJ: 40, CapacityJ: 120}
	jcfg := cfg
	jcfg.JournalDir = dir

	svc := newTestService(t, jcfg)
	h := svc.Handler()

	const writers = 4
	const perDevice = 4 // devices per writer
	const rounds = 30
	acked := make([][]mutation, writers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := g * perDevice
			for i := 0; i < rounds; i++ {
				device := base + i%perDevice
				var m mutation
				switch i % 3 {
				case 0:
					m = mutation{op: "step", device: device, harvestJ: 0.5 + float64(i%7)*0.4}
				case 1:
					m = mutation{op: "report", device: device, consumedJ: 0.01 + float64(i%5)*0.02}
				case 2:
					m = mutation{op: "alpha", device: device, alpha: 0.25 + float64(i%4)*0.5}
				}
				if m.apply(t, h) {
					acked[g] = append(acked[g], m)
				}
			}
		}(g)
	}
	wg.Wait()

	preStates := deviceStates(t, svc)
	crashService(svc)

	restored := newTestService(t, jcfg)
	defer restored.Close()
	expectStatesEqual(t, deviceStates(t, restored), preStates)

	// Writers own disjoint devices, so replaying each writer's
	// acknowledged sequence in its own order reconstructs every device
	// regardless of cross-writer interleaving.
	ref := newTestService(t, cfg)
	refH := ref.Handler()
	for g := range acked {
		for i, m := range acked[g] {
			if !m.apply(t, refH) {
				t.Fatalf("writer %d mutation %d not acknowledged by reference", g, i)
			}
		}
	}
	expectStatesEqual(t, deviceStates(t, restored), deviceStates(t, ref))
}

func TestCleanShutdownBootsWithZeroReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Devices: 6, Shards: 2, BatteryJ: 25, CapacityJ: 80, JournalDir: dir}

	svc := newTestService(t, cfg)
	h := svc.Handler()
	for d := 0; d < 6; d++ {
		if !(mutation{op: "step", device: d, harvestJ: 1.5}).apply(t, h) {
			t.Fatalf("step device %d", d)
		}
	}
	preStates := deviceStates(t, svc)
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	restored := newTestService(t, cfg)
	defer restored.Close()
	js := restored.Stats().Journal
	if js == nil || js.Replayed != 0 {
		t.Errorf("clean shutdown reboot replayed %+v, want zero replay from the final snapshot", js)
	}
	expectStatesEqual(t, deviceStates(t, restored), preStates)
}

// TestTornTailTruncatedOnBoot simulates the one write a power cut can
// tear — a half-appended record at the end of the active segment — and
// checks the boot drops exactly that and keeps everything acknowledged
// before it.
func TestTornTailTruncatedOnBoot(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Devices: 4, Shards: 2, BatteryJ: 20, CapacityJ: 60, JournalDir: dir}

	svc := newTestService(t, cfg)
	h := svc.Handler()
	for _, m := range []mutation{
		{op: "step", device: 0, harvestJ: 2},
		{op: "report", device: 0, consumedJ: 0.2},
		{op: "step", device: 3, harvestJ: 1},
	} {
		if !m.apply(t, h) {
			t.Fatalf("mutation %+v not acknowledged", m)
		}
	}
	preStates := deviceStates(t, svc)
	crashService(svc)

	// Tear the tail: a partial frame that claims more payload than
	// exists, appended to the newest segment.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no journal segments in %s: %v", dir, err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 42, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	restored := newTestService(t, cfg)
	defer restored.Close()
	js := restored.Stats().Journal
	if js == nil || !js.TornTail {
		t.Errorf("journal stats %+v, want a reported torn tail", js)
	}
	expectStatesEqual(t, deviceStates(t, restored), preStates)
}

// TestJournalRefusesForeignFleet: a journal written under one fleet
// shape must not replay into another — device indices would silently
// mean different hardware.
func TestJournalRefusesForeignFleet(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Devices: 4, BatteryJ: 20, CapacityJ: 60, JournalDir: dir}
	svc := newTestService(t, cfg)
	if !(mutation{op: "step", device: 0, harvestJ: 1}).apply(t, svc.Handler()) {
		t.Fatal("step not acknowledged")
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	for _, other := range []Config{
		{Devices: 5, BatteryJ: 20, CapacityJ: 60, JournalDir: dir},
		{Devices: 4, BatteryJ: 21, CapacityJ: 60, JournalDir: dir},
	} {
		if _, err := New(other); err == nil {
			t.Errorf("config %+v adopted a foreign journal, want fingerprint refusal", other)
		}
	}
	// The original shape still boots.
	restored, err := New(cfg)
	if err != nil {
		t.Fatalf("original config refused its own journal: %v", err)
	}
	restored.Close()
}

func TestNewRejectsBadFsyncPolicy(t *testing.T) {
	if _, err := New(Config{Devices: 2, JournalDir: t.TempDir(), FsyncPolicy: "sometimes"}); err == nil {
		t.Error("unknown fsync policy accepted")
	}
}

// TestFsyncPolicies drives the same traffic under each policy; all are
// crash-consistent for process death, so recovery must look identical.
func TestFsyncPolicies(t *testing.T) {
	for _, policy := range []string{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(policy, func(t *testing.T) {
			cfg := Config{Devices: 3, BatteryJ: 15, CapacityJ: 50,
				JournalDir: t.TempDir(), FsyncPolicy: policy}
			svc := newTestService(t, cfg)
			h := svc.Handler()
			for i := 0; i < 5; i++ {
				if !(mutation{op: "step", device: i % 3, harvestJ: 1 + float64(i)}).apply(t, h) {
					t.Fatalf("step %d", i)
				}
			}
			preStates := deviceStates(t, svc)
			crashService(svc)

			restored := newTestService(t, cfg)
			defer restored.Close()
			if got := restored.Stats().Journal.FsyncPolicy; got != policy {
				t.Errorf("journal stats report policy %q, want %q", got, policy)
			}
			expectStatesEqual(t, deviceStates(t, restored), preStates)
		})
	}
}

// BenchmarkReportPath measures the journaling tax on the hottest
// stateful endpoint: a 16-report batch (sorted by device, as a gateway
// would send it) against journal-off, the default interval policy, and
// the paranoid always policy. BENCH_serve.json records the off/interval
// ratio; the acceptance bar is ≤15% overhead at the default policy. That
// bar was set when encoding/json decoded and encoded every report
// batch: the single-pass codec roughly halved journal=off while the
// journal's own cost stayed put, so the ratio now reads higher for the
// same absolute tax, which BENCH_serve.json records beside it in µs.
func BenchmarkReportPath(b *testing.B) {
	const devices = 64
	const batch = 16
	reports := make([]wire.DeviceReport, batch)
	for i := range reports {
		reports[i] = wire.DeviceReport{Device: i * (devices / batch), ConsumedJ: 0.001}
	}
	body := mustMarshalB(b, &wire.ReportRequest{V: wire.Version, Reports: reports})

	run := func(b *testing.B, cfg Config) {
		cfg.Devices = devices
		cfg.BatteryJ, cfg.CapacityJ = 1e6, 2e6 // never drained by the bench
		svc, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Close()
		h := svc.Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req, rec := benchRequest(body)
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
	}
	b.Run("journal=off", func(b *testing.B) { run(b, Config{}) })
	b.Run("journal=interval", func(b *testing.B) {
		run(b, Config{JournalDir: b.TempDir(), FsyncPolicy: FsyncInterval})
	})
	b.Run("journal=always", func(b *testing.B) {
		run(b, Config{JournalDir: b.TempDir(), FsyncPolicy: FsyncAlways})
	})
}

func mustMarshalB(b *testing.B, v any) []byte {
	b.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		b.Fatal(err)
	}
	return raw
}

// benchRequest builds a fresh report request/recorder pair per
// iteration (bodies are single-use readers).
func benchRequest(body []byte) (*http.Request, *httptest.ResponseRecorder) {
	req := httptest.NewRequest(http.MethodPost, "/v1/report", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	return req, httptest.NewRecorder()
}

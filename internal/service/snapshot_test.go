package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	reap "repro"
	"repro/internal/journal"
	"repro/wire"
)

// These tests pin the binary snapshot codec (journal.go): exact round
// trips, strict rejection of malformed payloads, boot from a journal
// written with JSON snapshots, and bit-for-bit device state across a
// restart.

// encodeSnapshot is buildSnapshot's encoding over a states slice.
func encodeSnapshot(hdr *snapshotHeader, states []reap.ControllerState) ([]byte, error) {
	buf, err := newSnapshotBuffer(hdr, len(states))
	if err != nil {
		return nil, err
	}
	for _, st := range states {
		if buf, err = appendStateRecord(buf, st); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// edgeStates are controller states whose bits no decimal round trip
// would keep: negative zero, the smallest subnormal, the largest finite
// values, the largest step count, and non-default alphas.
func edgeStates() []reap.ControllerState {
	return []reap.ControllerState{
		{BatteryJ: 5e-324, CarryJ: math.Copysign(0, -1), LastPlannedJ: math.MaxFloat64,
			LastBudgetJ: -math.MaxFloat64, Steps: math.MaxInt, Alpha: 0.3},
		{BatteryJ: 0, CarryJ: -math.MaxFloat64, LastPlannedJ: 5e-324,
			LastBudgetJ: math.Copysign(0, -1), Steps: 0, Alpha: 1},
		{BatteryJ: 12.345678901234567, CarryJ: 0.1 + 0.2, LastPlannedJ: 9.936,
			LastBudgetJ: 30.75, Steps: 7, Alpha: 2.5},
	}
}

func testHeader() *snapshotHeader {
	return &snapshotHeader{V: wire.Version, Fingerprint: `v1 devices=3 solver="" battery=30/100`,
		Solves: 1, BatchItems: 2, Steps: 3, Reports: 4, AlphaSets: 5}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	hdr, states := testHeader(), edgeStates()
	buf, err := encodeSnapshot(hdr, states)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(hdr)
	if want := 1 + 1 + len(raw) + stateRecordSize*len(states); len(buf) != want {
		t.Errorf("payload is %d bytes, want %d", len(buf), want)
	}
	// Sized up front: a buffer that had to grow would have doubled.
	if cap(buf) > len(buf)+binary.MaxVarintLen64 {
		t.Errorf("buffer cap %d for a %d-byte payload: it grew while appending records", cap(buf), len(buf))
	}

	got, err := decodeSnapshot(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.snapshotHeader != *hdr {
		t.Errorf("header %+v, want %+v", got.snapshotHeader, *hdr)
	}
	expectStatesEqual(t, got.States, states)
	again, err := encodeSnapshot(&got.snapshotHeader, got.States)
	if err != nil || !bytes.Equal(again, buf) {
		t.Errorf("re-encoding the decoded snapshot differs (err %v)", err)
	}

	// A negative step count fails the encode instead of wrapping.
	if _, err := appendStateRecord(nil, reap.ControllerState{Steps: -1}); err == nil {
		t.Error("negative step count encoded")
	}
}

// snapshotReject is a payload decodeSnapshot must refuse.
type snapshotReject struct {
	name    string
	payload []byte
}

// snapshotRejects returns payloads decodeSnapshot must refuse, one per
// rule, built around a valid two-device payload.
func snapshotRejects(tb testing.TB) []snapshotReject {
	tb.Helper()
	valid, err := encodeSnapshot(testHeader(), edgeStates()[:2])
	if err != nil {
		tb.Fatal(err)
	}
	raw, _ := json.Marshal(testHeader())
	withHeader := func(h string) []byte {
		buf := binary.AppendUvarint([]byte{snapBinary}, uint64(len(h)))
		buf = append(buf, h...)
		return append(buf, valid[len(valid)-2*stateRecordSize:]...)
	}
	hdr := string(raw)
	bigSteps := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(bigSteps[len(bigSteps)-stateRecordSize+32:], uint64(math.MaxInt)+1)
	return []snapshotReject{
		{"empty", []byte{}},
		{"event_format_byte", append([]byte{evFormat}, valid[1:]...)},
		{"unknown_format_byte", append([]byte{0x7f}, valid[1:]...)},
		{"no_header_length", []byte{snapBinary}},
		{"truncated_length", []byte{snapBinary, 0x80}},
		{"header_past_end", []byte{snapBinary, 0x7f, '{', '}'}},
		{"header_not_json", withHeader("not json at all")},
		{"header_truncated_json", withHeader(hdr[:len(hdr)-1])},
		{"header_carries_states", withHeader(strings.TrimSuffix(hdr, "}") + `,"states":[]}`)},
		{"header_unknown_field", withHeader(strings.TrimSuffix(hdr, "}") + `,"extra":1}`)},
		{"header_whitespace", withHeader(strings.Replace(hdr, ":", ": ", 1))},
		{"header_duplicate_key", withHeader(`{"v":1,` + hdr[1:])},
		{"header_trailing_data", withHeader(hdr + " {}")},
		{"header_array", withHeader("[]")},
		{"table_one_byte_short", valid[:len(valid)-1]},
		{"table_one_byte_long", append(append([]byte(nil), valid...), 0)},
		{"steps_above_maxint", bigSteps},
		{"json_truncated", []byte(`{"v":1,"fingerprint":"x","states":[`)},
		{"json_wrong_type", []byte(`{"v":"one"}`)},
	}
}

func TestSnapshotDecodeRejects(t *testing.T) {
	for _, tc := range snapshotRejects(t) {
		t.Run(tc.name, func(t *testing.T) {
			if snap, err := decodeSnapshot(tc.payload); err == nil {
				t.Errorf("decoded %+v with %d states, want error", snap.snapshotHeader, len(snap.States))
			}
		})
	}
}

// FuzzDecodeSnapshot feeds arbitrary bytes to the snapshot decoder: it
// must never panic, and every binary payload it accepts must re-encode
// byte for byte, so nothing it lets through can mean two things.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, tc := range snapshotRejects(f) {
		f.Add(tc.payload)
	}
	valid, err := encodeSnapshot(testHeader(), edgeStates())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Fuzz(func(t *testing.T, payload []byte) {
		snap, err := decodeSnapshot(payload)
		if err != nil || payload[0] != snapBinary {
			return
		}
		again, err := encodeSnapshot(&snap.snapshotHeader, snap.States)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload re-encodes differently:\n got %x\nwant %x", again, payload)
		}
	})
}

// TestRestoreSnapshotChecksFleetShape: a well-formed snapshot for the
// right fingerprint but the wrong number of records is refused.
func TestRestoreSnapshotChecksFleetShape(t *testing.T) {
	svc := newTestService(t, Config{Devices: 3, BatteryJ: 30, CapacityJ: 100})
	hdr := snapshotHeader{V: wire.Version, Fingerprint: svc.fingerprint()}
	for _, n := range []int{2, 4} {
		payload, err := encodeSnapshot(&hdr, make([]reap.ControllerState, n))
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.restoreSnapshot(payload); !errors.Is(err, reap.ErrInvalidConfig) {
			t.Errorf("%d records for 3 devices: err %v, want ErrInvalidConfig", n, err)
		}
	}
}

// TestRestoreSnapshotRefusesInfiniteCarry: the binary records carry raw
// float bits, and decodeSnapshot leaves value checks to Restore, so a
// +Inf carry reaches Restore and must fail boot there.
func TestRestoreSnapshotRefusesInfiniteCarry(t *testing.T) {
	svc := newTestService(t, Config{Devices: 3, BatteryJ: 30, CapacityJ: 100})
	hdr := snapshotHeader{V: wire.Version, Fingerprint: svc.fingerprint()}
	states := []reap.ControllerState{
		{BatteryJ: 30, Alpha: 1},
		{BatteryJ: 1, CarryJ: math.Inf(1), Alpha: 1},
		{BatteryJ: 30, Alpha: 1},
	}
	payload, err := encodeSnapshot(&hdr, states)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.restoreSnapshot(payload); !errors.Is(err, reap.ErrInvalidConfig) {
		t.Errorf("snapshot with a +Inf carry: err %v, want ErrInvalidConfig", err)
	}
}

// TestJournalFingerprintFormat pins the identity string journals are
// checked against: a journal written before the daemon's solver option
// was removed carries solver="" and must still boot, and one written
// under a named solver is refused.
func TestJournalFingerprintFormat(t *testing.T) {
	svc := newTestService(t, Config{Devices: 3, BatteryJ: 30, CapacityJ: 100})
	if got, want := svc.fingerprint(), `v1 devices=3 solver="" battery=30/100`; got != want {
		t.Fatalf("fingerprint %q, want %q", got, want)
	}
	for fp, ok := range map[string]bool{
		`v1 devices=3 solver="" battery=30/100`:        true,
		`v1 devices=3 solver="simplex" battery=30/100`: false,
	} {
		payload, err := encodeSnapshot(&snapshotHeader{V: wire.Version, Fingerprint: fp}, make([]reap.ControllerState, 3))
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.restoreSnapshot(payload); (err == nil) != ok {
			t.Errorf("snapshot from %q: err %v, want accepted=%v", fp, err, ok)
		}
	}
}

// restoreDevice overwrites one device's state under its shard lock.
func restoreDevice(t *testing.T, svc *Service, device int, st reap.ControllerState) {
	t.Helper()
	sh, err := svc.shardFor(device)
	if err != nil {
		t.Fatal(err)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ctl, err := svc.fleet.Device(device)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Restore(st); err != nil {
		t.Fatalf("device %d: %v", device, err)
	}
}

// TestRestartRestoresStatesBitForBit: after traffic, Close and a fresh
// New restore every device's State() bit for bit, including the edge
// values, which reach the restarted service only through the snapshot.
func TestRestartRestoresStatesBitForBit(t *testing.T) {
	cfg := Config{Devices: 16, Shards: 4, BatteryJ: 30, CapacityJ: 100, JournalDir: t.TempDir()}
	svc := newTestService(t, cfg)
	fleetMutations(t, svc.Handler(), 40, cfg.Devices)
	for i, st := range edgeStates() {
		restoreDevice(t, svc, 13+i, st)
	}
	want := deviceStates(t, svc)
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	restored := newTestService(t, cfg)
	defer restored.Close()
	expectStatesEqual(t, deviceStates(t, restored), want)
	payload, _ := restored.store.SnapshotNow()
	if want := 1 + 1 + stateRecordSize*cfg.Devices; len(payload) < want || payload[0] != snapBinary {
		t.Errorf("boot snapshot: %d bytes starting %#x, want a binary snapshot of over %d bytes",
			len(payload), payload[0], want)
	}
}

// TestBootsJSONSnapshotJournal boots testdata/json-snapshot/journal, a
// journal directory written by the last build whose snapshots were JSON
// (commit 0bb5aab). It was generated by a throwaway test in this
// package at that commit: a Config{Devices: 16, Shards: 4, BatteryJ: 30,
// CapacityJ: 100} service with that JournalDir took, through its
// Handler, one step per device (harvest 0.75 + 0.5·d J), reports on the
// even devices (0.05 + 0.125·(d mod 5) J), alpha 0.5 on device 3 and 2
// on device 9, steps on devices 3, 9 and 12, reports on 3 and 9, and a
// step on device 5 — 32 events. states.json is every device's State()
// as that build marshalled it just before Close wrote the final
// snapshot.
func TestBootsJSONSnapshotJournal(t *testing.T) {
	const src = "testdata/json-snapshot"
	dir := t.TempDir()
	entries, err := os.ReadDir(filepath.Join(src, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, "journal", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(filepath.Join(src, "states.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []reap.ControllerState
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if payload := snapshotOnDisk(t, dir); payload[0] != snapJSON {
		t.Fatalf("testdata snapshot starts %#x, want a JSON snapshot", payload[0])
	}

	cfg := Config{Devices: 16, Shards: 4, BatteryJ: 30, CapacityJ: 100, JournalDir: dir}
	svc := newTestService(t, cfg)
	expectStatesEqual(t, deviceStates(t, svc), want)
	st := svc.Stats()
	if st.Steps != 20 || st.Reports != 10 || st.AlphaSets != 2 || st.Journal.Replayed != 0 {
		t.Errorf("counters steps %d reports %d alpha_sets %d replayed %d, want 20, 10, 2, 0",
			st.Steps, st.Reports, st.AlphaSets, st.Journal.Replayed)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if payload := snapshotOnDisk(t, dir); payload[0] != snapBinary {
		t.Errorf("boot compaction left a snapshot starting %#x, want the binary format", payload[0])
	}
	again := newTestService(t, cfg)
	defer again.Close()
	expectStatesEqual(t, deviceStates(t, again), want)
}

// snapshotOnDisk reads the newest snapshot in a closed journal dir.
func snapshotOnDisk(t *testing.T, dir string) []byte {
	t.Helper()
	st, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := st.Snapshot()
	if len(payload) == 0 {
		t.Fatalf("no snapshot in %s", dir)
	}
	return payload
}

// TestReportCarryOverflowRefused: two reports of 1e308 J to one device
// would drive its carry to -Inf. The second is refused with 400
// budget_negative, so compaction and the drain's final snapshot keep
// working.
func TestReportCarryOverflowRefused(t *testing.T) {
	cfg := Config{Devices: 4, BatteryJ: 20, CapacityJ: 60, JournalDir: t.TempDir()}
	svc := newTestService(t, cfg)
	h := svc.Handler()
	body := &wire.ReportRequest{V: wire.Version, Reports: []wire.DeviceReport{{Device: 1, ConsumedJ: 1e308}}}
	if rec := do(t, h, http.MethodPost, "/v1/report", body); rec.Code != http.StatusOK {
		t.Fatalf("first report: %d %s", rec.Code, rec.Body)
	}
	rec := do(t, h, http.MethodPost, "/v1/report", body)
	if rec.Code != http.StatusBadRequest || decodeErrCode(t, rec) != wire.CodeBudgetNegative {
		t.Fatalf("second report: %d %s, want 400 %s", rec.Code, rec.Body, wire.CodeBudgetNegative)
	}
	if err := svc.compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	restored := newTestService(t, cfg)
	defer restored.Close()
	if c := deviceStates(t, restored)[1].CarryJ; math.IsInf(c, 0) || restored.Stats().Reports != 1 {
		t.Errorf("after restart: carry %v, reports %d; want finite and 1", c, restored.Stats().Reports)
	}
}

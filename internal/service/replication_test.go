package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	reap "repro"
	"repro/internal/journal"
	"repro/internal/replicate"
	"repro/internal/resilience"
	"repro/wire"
)

// These tests pin the hot-standby replication contract end to end over
// real HTTP: a journaled primary ships every acknowledged mutation to a
// follower before the client's ack, the follower applies in sequence
// lockstep, failover is fenced by the persisted epoch, and a full disk
// degrades the node to read-only instead of crashing it. The stream
// machinery itself is covered in internal/replicate; here the subject
// is the service wiring — role gates, shard-lock application, promote,
// and teardown hygiene.

// newPrimary boots a journaled primary and serves it over a real
// listener (followers dial TCP). The caller owns teardown ordering:
// close followers first, then the returned server, then the service.
func newPrimary(t *testing.T, cfg Config) (*Service, *httptest.Server, string) {
	t.Helper()
	if cfg.JournalDir == "" {
		cfg.JournalDir = t.TempDir()
	}
	svc := newTestService(t, cfg)
	srv := httptest.NewServer(svc.Handler())
	return svc, srv, strings.TrimPrefix(srv.URL, "http://")
}

// newFollower boots a follower tailing primaryAddr, with its own
// journal dir.
func newFollower(t *testing.T, cfg Config, primaryAddr string) *Service {
	t.Helper()
	if cfg.JournalDir == "" {
		cfg.JournalDir = t.TempDir()
	}
	cfg.Role = wire.RoleFollower
	cfg.PrimaryAddr = primaryAddr
	if cfg.FollowerID == "" {
		cfg.FollowerID = "f1"
	}
	return newTestService(t, cfg)
}

// waitCaughtUp polls until the follower's journal position matches the
// primary's — the convergence point every test drives to.
func waitCaughtUp(t *testing.T, primary, follower *Service) {
	t.Helper()
	waitFor(t, 10*time.Second, func() bool {
		return follower.store.Seq() == primary.store.Seq()
	}, func() string {
		return fmt.Sprintf("follower at seq %d, primary at seq %d",
			follower.store.Seq(), primary.store.Seq())
	})
}

// doEpoch is do with an X-Reap-Epoch header — the client-side fencing
// token reapload carries after a failover.
func doEpoch(t *testing.T, h http.Handler, method, path string, epoch uint64, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw := mustMarshal(t, body)
	req := httptest.NewRequest(method, path, strings.NewReader(string(raw)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Reap-Epoch", fmt.Sprintf("%d", epoch))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// fleetMutations drives a state history touching reports, telemetry
// steps, and alpha changes across a devices-sized fleet's shards.
func fleetMutations(t *testing.T, h http.Handler, n, devices int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var m mutation
		switch i % 3 {
		case 0:
			m = mutation{op: "step", device: i % devices, harvestJ: 1 + float64(i%5)}
		case 1:
			m = mutation{op: "report", device: (i * 5) % devices, consumedJ: 0.01 * float64(1+i%4)}
		default:
			m = mutation{op: "alpha", device: i % devices, alpha: 0.25 + 0.05*float64(i%10)}
		}
		if !m.apply(t, h) {
			t.Fatalf("mutation %d (%+v) not acknowledged", i, m)
		}
	}
}

func TestFollowerCatchUpLiveStream(t *testing.T) {
	cfg := Config{Devices: 12, Shards: 4, BatteryJ: 30, CapacityJ: 100}
	primary, srv, addr := newPrimary(t, cfg)
	defer primary.Close()
	defer srv.Close()

	// History before the follower exists: it must arrive via cursor
	// catch-up over retained segments.
	fleetMutations(t, primary.Handler(), 6, 12)

	follower := newFollower(t, cfg, addr)
	defer follower.Close()
	waitCaughtUp(t, primary, follower)

	// History after attach: shipped live, before each ack.
	fleetMutations(t, primary.Handler(), 6, 12)
	reportOutOfOrderAndStopped(t, primary)
	waitCaughtUp(t, primary, follower)

	expectStatesEqual(t, deviceStates(t, follower), deviceStates(t, primary))

	rs := follower.Stats().Replication
	if rs == nil || rs.Role != wire.RoleFollower || !rs.Connected {
		t.Fatalf("follower replication stats = %+v, want connected follower", rs)
	}
	if rs.Applied == 0 {
		t.Errorf("follower applied %d events, want > 0", rs.Applied)
	}

	// The primary's lag accounting should see the follower ack up to
	// the shared position (acks ride a 500ms ticker — poll).
	waitFor(t, 10*time.Second, func() bool {
		prs := primary.Stats().Replication
		return prs != nil && len(prs.Followers) == 1 &&
			prs.Followers[0].AckSeq == primary.store.Seq()
	}, func() string {
		return fmt.Sprintf("primary follower lag = %+v", primary.Stats().Replication)
	})
}

// TestStreamPastHistoryBootstraps: a follower whose position lies past
// the primary's history reads, off the raw stream, a hello that
// announces a bootstrap and then the snapshot frame.
func TestStreamPastHistoryBootstraps(t *testing.T) {
	cfg := Config{Devices: 8, Shards: 2, BatteryJ: 30, CapacityJ: 100}
	primary, srv, addr := newPrimary(t, cfg)
	defer primary.Close()
	defer srv.Close()
	fleetMutations(t, primary.Handler(), 6, 8)

	resp, err := http.Get(fmt.Sprintf("http://%s/v1/replicate?from=%d&epoch=1&id=ahead", addr, primary.store.Seq()+5))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.CloseClientConnections()
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	for _, want := range []byte{replicate.KindHello, replicate.KindSnapshot} {
		p, err := journal.ReadFrame(r)
		if err != nil {
			t.Fatalf("reading frame %d: %v", want, err)
		}
		m, err := replicate.Decode(p)
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind != want {
			t.Fatalf("frame kind %d, want %d", m.Kind, want)
		}
		if m.Kind == replicate.KindHello && !m.Bootstrap {
			t.Fatalf("hello %+v does not announce the snapshot that follows", m)
		}
	}
}

// TestAckWithEscapedFollowerID: a follower ID holding a control byte,
// which its JSON ack body must escape, still reaches the primary's lag
// accounting.
func TestAckWithEscapedFollowerID(t *testing.T) {
	cfg := Config{Devices: 8, Shards: 2, BatteryJ: 30, CapacityJ: 100}
	primary, srv, addr := newPrimary(t, cfg)
	defer primary.Close()
	defer srv.Close()
	fcfg := cfg
	fcfg.FollowerID = "edge\x01id"
	follower := newFollower(t, fcfg, addr)
	defer follower.Close()

	fleetMutations(t, primary.Handler(), 6, 8)
	waitCaughtUp(t, primary, follower)
	waitFor(t, 10*time.Second, func() bool {
		var st wire.StatsResponse
		rec := do(t, primary.Handler(), http.MethodGet, "/v1/stats", nil)
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.Replication == nil {
			return false
		}
		for _, f := range st.Replication.Followers {
			if f.ID == fcfg.FollowerID && f.AckSeq == primary.store.Seq() {
				return true
			}
		}
		return false
	}, func() string {
		return fmt.Sprintf("primary follower lag = %+v", primary.Stats().Replication)
	})
}

// TestFollowerIDMustBeUTF8: a follower ID that is not valid UTF-8 is
// refused at boot and on the stream request. Its JSON acks would carry
// U+FFFD in place of the invalid byte, so the primary would list one
// follower under two keys.
func TestFollowerIDMustBeUTF8(t *testing.T) {
	cfg := Config{Devices: 8, Shards: 2, BatteryJ: 30, CapacityJ: 100}
	primary, srv, addr := newPrimary(t, cfg)
	defer primary.Close()
	defer srv.Close()

	fcfg := cfg
	fcfg.JournalDir = t.TempDir()
	fcfg.Role = wire.RoleFollower
	fcfg.PrimaryAddr = addr
	fcfg.FollowerID = "bad\xff"
	if svc, err := New(fcfg); !errors.Is(err, reap.ErrInvalidConfig) {
		if svc != nil {
			svc.Close()
		}
		t.Fatalf("New with follower ID %q: %v, want ErrInvalidConfig", fcfg.FollowerID, err)
	}

	rec := do(t, primary.Handler(), http.MethodGet, "/v1/replicate?from=0&epoch=1&id=bad%FF", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("stream with id bad%%FF: status %d, want 400 (%s)", rec.Code, rec.Body)
	}
	if code := decodeErrCode(t, rec); code != wire.CodeMalformed {
		t.Errorf("stream with id bad%%FF: code %q, want %q", code, wire.CodeMalformed)
	}
}

func TestFollowerRefusesMutationsWithLeaderHint(t *testing.T) {
	cfg := Config{Devices: 8, BatteryJ: 20, CapacityJ: 100}
	primary, srv, addr := newPrimary(t, cfg)
	defer primary.Close()
	defer srv.Close()
	follower := newFollower(t, cfg, addr)
	defer follower.Close()
	h := follower.Handler()

	rec := do(t, h, http.MethodPost, "/v1/report", &wire.ReportRequest{
		V: wire.Version, Reports: []wire.DeviceReport{{Device: 1, ConsumedJ: 0.1}},
	})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("follower report: status %d, want 503 (%s)", rec.Code, rec.Body)
	}
	if code := decodeErrCode(t, rec); code != wire.CodeNotPrimary {
		t.Errorf("error code %q, want %q", code, wire.CodeNotPrimary)
	}
	if got := rec.Header().Get("Leader"); got != addr {
		t.Errorf("Leader hint %q, want %q", got, addr)
	}

	// Stateless solves keep serving on a follower.
	rec = do(t, h, http.MethodPost, "/v1/solve", &wire.SolveRequest{V: wire.Version, BudgetJ: 5})
	if rec.Code != http.StatusOK {
		t.Errorf("follower solve: status %d, want 200 (%s)", rec.Code, rec.Body)
	}

	// /healthz reports the role and a lag measurement once frames flow.
	waitFor(t, 10*time.Second, func() bool {
		rec := do(t, h, http.MethodGet, "/healthz", nil)
		var resp wire.HealthzResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return false
		}
		return rec.Code == http.StatusOK && resp.Role == wire.RoleFollower &&
			resp.Epoch >= 1 && resp.ReplicationLagS != nil
	}, func() string {
		rec := do(t, h, http.MethodGet, "/healthz", nil)
		return fmt.Sprintf("healthz = %d %s", rec.Code, rec.Body)
	})
}

func TestSnapshotBootstrapBehindRetention(t *testing.T) {
	// Each compaction after traffic rotates the journal onto a fresh
	// segment and keeps only the retainSegments newest rotated ones, so
	// retainSegments+2 of them drop the segment history began in: a
	// follower connecting from seq 0 predates retention and must
	// bootstrap from the in-stream snapshot.
	cfg := Config{Devices: 12, Shards: 4, BatteryJ: 30, CapacityJ: 100}
	primary, srv, addr := newPrimary(t, cfg)
	defer primary.Close()
	defer srv.Close()

	for range retainSegments + 2 {
		fleetMutations(t, primary.Handler(), 2, 12)
		if err := primary.compact(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := primary.store.OpenCursor(0); !errors.Is(err, journal.ErrCompacted) {
		t.Fatalf("a cursor at seq 0 still opens after %d compactions (err %v)", retainSegments+2, err)
	}
	// Edge values set outside the journal reach the follower only
	// through the snapshot, so a bit-for-bit match below proves the
	// bootstrap installed the binary snapshot exactly. The later
	// traffic never touches devices 8-10.
	for i, st := range edgeStates() {
		restoreDevice(t, primary, 8+i, st)
	}
	if err := primary.compact(); err != nil {
		t.Fatal(err)
	}

	follower := newFollower(t, cfg, addr)
	defer follower.Close()
	waitCaughtUp(t, primary, follower)
	expectStatesEqual(t, deviceStates(t, follower), deviceStates(t, primary))
	if payload, _, err := follower.store.Snapshot(); err != nil || len(payload) == 0 || payload[0] != snapBinary {
		t.Errorf("follower's snapshot is not in the binary format")
	}

	fleetMutations(t, primary.Handler(), 4, 12)
	waitCaughtUp(t, primary, follower)
	expectStatesEqual(t, deviceStates(t, follower), deviceStates(t, primary))
}

// journalEvents reads st's journal with a cursor from seq from to its
// end.
func journalEvents(t *testing.T, st *journal.Store, from uint64) []journalEntry {
	t.Helper()
	cur, err := st.OpenCursor(from)
	if err != nil {
		t.Fatalf("cursor at %d: %v", from, err)
	}
	defer cur.Close()
	var out []journalEntry
	for {
		payload, seq, err := cur.Next()
		if errors.Is(err, journal.ErrNotReady) {
			return out
		}
		if err != nil {
			t.Fatalf("cursor after %d: %v", cur.Seq(), err)
		}
		out = append(out, journalEntry{seq, string(payload)})
	}
}

type journalEntry struct {
	seq     uint64
	payload string
}

// oldestRetained returns the earliest seq a cursor on st opens at.
func oldestRetained(st *journal.Store) uint64 {
	from := st.Seq()
	for from > 0 {
		cur, err := st.OpenCursor(from - 1)
		if err != nil {
			break
		}
		_ = cur.Close()
		from--
	}
	return from
}

// TestFollowerJournalMatchesPrimary: a follower bootstrapped from a
// snapshot, then caught up from the primary's cursor and fed live,
// journals the primary's events byte for byte: from the follower's
// oldest retained seq on, both directories hold equal (seq, payload)
// pairs, so every acknowledged event is on the caught-up follower.
func TestFollowerJournalMatchesPrimary(t *testing.T) {
	cfg := Config{Devices: 12, Shards: 4, BatteryJ: 30, CapacityJ: 100}
	primary, srv, addr := newPrimary(t, cfg)
	defer primary.Close()
	defer srv.Close()
	for range retainSegments + 2 {
		fleetMutations(t, primary.Handler(), 3, 12)
		if err := primary.compact(); err != nil {
			t.Fatal(err)
		}
	}
	fleetMutations(t, primary.Handler(), 5, 12) // read by the catch-up cursor

	follower := newFollower(t, cfg, addr)
	defer follower.Close()
	waitCaughtUp(t, primary, follower)
	fleetMutations(t, primary.Handler(), 9, 12) // shipped live
	reportOutOfOrderAndStopped(t, primary)
	waitCaughtUp(t, primary, follower)

	from := oldestRetained(follower.store)
	if snap := primary.store.Stats().SnapshotSeq; from != snap {
		t.Fatalf("follower retains history from seq %d, want the primary's snapshot at %d", from, snap)
	}
	got, want := journalEvents(t, follower.store, from), journalEvents(t, primary.store, from)
	// 5 caught up, 9 live, and the two report batches, the second
	// journaled for the prefix before its unknown device.
	if len(want) != 5+9+2 {
		t.Fatalf("primary journaled %d events after seq %d, want 16", len(want), from)
	}
	if len(got) != len(want) {
		t.Fatalf("follower journaled %d events after seq %d, primary %d", len(got), from, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: follower %+q, primary %+q", i, got[i], want[i])
		}
	}
}

func TestStreamTearResync(t *testing.T) {
	// Every replication stream the primary serves is cut mid-frame
	// after a few hundred bytes — far less than the 30-event history —
	// so catch-up is forced through repeated torn frames: the follower
	// must discard the partial record (CRC framing) and resume exactly
	// where it left off, stream after stream.
	cfg := Config{Devices: 12, Shards: 4, BatteryJ: 30, CapacityJ: 100}
	pcfg := cfg
	pcfg.Chaos = resilience.ChaosConfig{Seed: 7, StreamTearP: 1, StreamTearBytes: 384}
	primary, srv, addr := newPrimary(t, pcfg)
	defer primary.Close()
	defer srv.Close()

	fleetMutations(t, primary.Handler(), 30, 12)

	follower := newFollower(t, cfg, addr)
	defer follower.Close()
	waitCaughtUp(t, primary, follower)
	expectStatesEqual(t, deviceStates(t, follower), deviceStates(t, primary))

	if rs := follower.Stats().Replication; rs.Reconnects == 0 {
		t.Errorf("reconnects = 0, want > 0 — the 384-byte tear budget cannot fit the whole history")
	}
}

func TestPromoteBumpsEpochAndAcceptsWrites(t *testing.T) {
	cfg := Config{Devices: 8, BatteryJ: 20, CapacityJ: 100}
	primary, srv, addr := newPrimary(t, cfg)
	defer primary.Close()
	defer srv.Close()
	follower := newFollower(t, cfg, addr)
	defer follower.Close()

	fleetMutations(t, primary.Handler(), 3, 8)
	waitCaughtUp(t, primary, follower)
	h := follower.Handler()

	rec := do(t, h, http.MethodPost, "/v1/promote", &wire.PromoteRequest{V: wire.Version})
	if rec.Code != http.StatusOK {
		t.Fatalf("promote: status %d (%s)", rec.Code, rec.Body)
	}
	var resp wire.PromoteResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Role != wire.RolePrimary || resp.Epoch != 2 {
		t.Fatalf("promote response %+v, want primary at epoch 2", resp)
	}
	if resp.Seq != follower.store.Seq() {
		t.Errorf("promote seq %d, want journal position %d", resp.Seq, follower.store.Seq())
	}

	// Idempotent: a second promote neither re-bumps nor errors.
	rec = do(t, h, http.MethodPost, "/v1/promote", &wire.PromoteRequest{V: wire.Version})
	if rec.Code != http.StatusOK {
		t.Fatalf("re-promote: status %d (%s)", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != 2 {
		t.Errorf("re-promote epoch %d, want 2 (idempotent)", resp.Epoch)
	}

	// The new primary acknowledges mutations — even with the new
	// epoch's fencing token attached.
	rec = doEpoch(t, h, http.MethodPost, "/v1/report", 2, &wire.ReportRequest{
		V: wire.Version, Reports: []wire.DeviceReport{{Device: 2, ConsumedJ: 0.05}},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("post-promote report: status %d (%s)", rec.Code, rec.Body)
	}

	// The persisted epoch survives restart: promotion is crash-safe.
	if e, err := replicate.LoadEpoch(follower.cfg.JournalDir); err != nil || e != 2 {
		t.Errorf("persisted epoch = %d, %v; want 2", e, err)
	}
}

func TestStaleEpochFencesExPrimary(t *testing.T) {
	cfg := Config{Devices: 8, BatteryJ: 20, CapacityJ: 100}
	primary, srv, _ := newPrimary(t, cfg)
	defer primary.Close()
	defer srv.Close()
	h := primary.Handler()

	// A client carrying a newer epoch than ours proves a promotion
	// happened elsewhere: the mutation is refused and the node fences.
	rec := doEpoch(t, h, http.MethodPost, "/v1/report", 2, &wire.ReportRequest{
		V: wire.Version, Reports: []wire.DeviceReport{{Device: 1, ConsumedJ: 0.1}},
	})
	if rec.Code != http.StatusConflict {
		t.Fatalf("stale-epoch report: status %d, want 409 (%s)", rec.Code, rec.Body)
	}
	if code := decodeErrCode(t, rec); code != wire.CodeStaleEpoch {
		t.Errorf("error code %q, want %q", code, wire.CodeStaleEpoch)
	}

	// The fence is sticky: even epoch-less mutations are refused now —
	// this node can never again acknowledge a write at its dead term.
	rec = do(t, h, http.MethodPost, "/v1/report", &wire.ReportRequest{
		V: wire.Version, Reports: []wire.DeviceReport{{Device: 1, ConsumedJ: 0.1}},
	})
	if rec.Code != http.StatusConflict || decodeErrCode(t, rec) != wire.CodeStaleEpoch {
		t.Fatalf("fenced report: %d %s, want 409 stale_epoch", rec.Code, rec.Body)
	}

	// Solves keep serving — fencing is about mutations only.
	rec = do(t, h, http.MethodPost, "/v1/solve", &wire.SolveRequest{V: wire.Version, BudgetJ: 5})
	if rec.Code != http.StatusOK {
		t.Errorf("fenced solve: status %d, want 200 (%s)", rec.Code, rec.Body)
	}

	// The fence is visible to load balancers: /healthz stops claiming
	// the primary role.
	rec = do(t, h, http.MethodGet, "/healthz", nil)
	var hz wire.HealthzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Role != wire.RoleFenced {
		t.Errorf("fenced healthz role %q, want %q", hz.Role, wire.RoleFenced)
	}

	// A follower from a later term is refused the stream the same way.
	rec = do(t, h, http.MethodGet, "/v1/replicate?from=0&epoch=3", nil)
	if rec.Code != http.StatusConflict || decodeErrCode(t, rec) != wire.CodeStaleEpoch {
		t.Fatalf("replicate at higher epoch: %d %s, want 409 stale_epoch", rec.Code, rec.Body)
	}

	// Promote re-arms the fenced node at a term that out-bids every
	// epoch it has seen.
	rec = do(t, h, http.MethodPost, "/v1/promote", &wire.PromoteRequest{V: wire.Version})
	if rec.Code != http.StatusOK {
		t.Fatalf("promote fenced node: %d (%s)", rec.Code, rec.Body)
	}
	var presp wire.PromoteResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &presp); err != nil {
		t.Fatal(err)
	}
	if presp.Epoch < 4 {
		t.Errorf("re-armed epoch %d, want > every seen term (≥ 4)", presp.Epoch)
	}
	rec = do(t, h, http.MethodPost, "/v1/report", &wire.ReportRequest{
		V: wire.Version, Reports: []wire.DeviceReport{{Device: 1, ConsumedJ: 0.1}},
	})
	if rec.Code != http.StatusOK {
		t.Errorf("re-armed report: status %d, want 200 (%s)", rec.Code, rec.Body)
	}
}

func TestPrimaryRestartWithHigherEpochAdopted(t *testing.T) {
	cfg := Config{Devices: 8, BatteryJ: 20, CapacityJ: 100}
	pcfg := cfg
	pcfg.JournalDir = t.TempDir()
	primary, srv, addr := newPrimary(t, pcfg)
	closedSrv := false
	defer func() {
		if !closedSrv {
			srv.Close()
		}
	}()

	fleetMutations(t, primary.Handler(), 4, 8)
	follower := newFollower(t, cfg, addr)
	defer follower.Close()
	waitCaughtUp(t, primary, follower)

	// The primary dies, is promoted out-of-band (epoch file bumped, as
	// a promote-then-crash would leave it), and comes back on the same
	// address at the higher term.
	srv.CloseClientConnections()
	srv.Close()
	closedSrv = true
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	if err := replicate.SaveEpoch(pcfg.JournalDir, 7); err != nil {
		t.Fatal(err)
	}

	restarted := newTestService(t, pcfg)
	defer restarted.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	srv2 := &http.Server{Handler: restarted.Handler()}
	go func() { _ = srv2.Serve(ln) }()
	defer srv2.Close()

	// The follower's reconnect sees hello at epoch 7, adopts and
	// persists it, and replication continues.
	waitFor(t, 10*time.Second, func() bool {
		rs := follower.Stats().Replication
		return rs != nil && rs.Epoch == 7 && rs.Connected
	}, func() string {
		return fmt.Sprintf("follower replication = %+v, want connected at epoch 7", follower.Stats().Replication)
	})
	fleetMutations(t, restarted.Handler(), 3, 8)
	waitCaughtUp(t, restarted, follower)
	expectStatesEqual(t, deviceStates(t, follower), deviceStates(t, restarted))
	if e, err := replicate.LoadEpoch(follower.cfg.JournalDir); err != nil || e != 7 {
		t.Errorf("follower persisted epoch = %d, %v; want 7", e, err)
	}
}

func TestDiskFullDegradesToReadOnly(t *testing.T) {
	cfg := Config{Devices: 8, BatteryJ: 20, CapacityJ: 100, JournalDir: t.TempDir()}
	svc := newTestService(t, cfg)
	defer svc.Close()
	h := svc.Handler()

	if !(mutation{op: "report", device: 1, consumedJ: 0.1}).apply(t, h) {
		t.Fatal("pre-ENOSPC mutation not acknowledged")
	}

	// Every further append fails the way a full disk fails.
	svc.store.FailAppends(syscall.ENOSPC)

	rec := do(t, h, http.MethodPost, "/v1/report", &wire.ReportRequest{
		V: wire.Version, Reports: []wire.DeviceReport{{Device: 2, ConsumedJ: 0.1}},
	})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("report on full disk: status %d, want 503 (%s)", rec.Code, rec.Body)
	}
	if code := decodeErrCode(t, rec); code != wire.CodeDegraded {
		t.Errorf("error code %q, want %q", code, wire.CodeDegraded)
	}

	// Degraded is sticky: the refusal now happens before the journal is
	// touched at all.
	rec = do(t, h, http.MethodPost, "/v1/alpha", &wire.AlphaRequest{V: wire.Version, Device: 1, Alpha: 0.5})
	if rec.Code != http.StatusServiceUnavailable || decodeErrCode(t, rec) != wire.CodeDegraded {
		t.Fatalf("alpha while degraded: %d %s, want 503 degraded", rec.Code, rec.Body)
	}

	// Solves keep serving — the whole point of degrading instead of
	// dying.
	rec = do(t, h, http.MethodPost, "/v1/solve", &wire.SolveRequest{V: wire.Version, BudgetJ: 5})
	if rec.Code != http.StatusOK {
		t.Errorf("solve while degraded: status %d, want 200 (%s)", rec.Code, rec.Body)
	}

	// /healthz routes on the degraded role.
	rec = do(t, h, http.MethodGet, "/healthz", nil)
	var hz wire.HealthzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || hz.Role != wire.RoleDegraded {
		t.Errorf("healthz = %d role %q, want 200 %q", rec.Code, hz.Role, wire.RoleDegraded)
	}
}

func TestReplicationTeardownLeaksNothing(t *testing.T) {
	baseline := runtime.NumGoroutine()

	cfg := Config{Devices: 8, BatteryJ: 20, CapacityJ: 100}
	primary, srv, addr := newPrimary(t, cfg)
	follower := newFollower(t, cfg, addr)

	fleetMutations(t, primary.Handler(), 5, 8)
	waitCaughtUp(t, primary, follower)

	// Teardown order an operator would use: follower first (its stream
	// request ends), then the listener, then the primary. Close waits
	// for the tail goroutine, the hub, and the maintenance loop.
	if err := follower.Close(); err != nil {
		t.Fatalf("follower close: %v", err)
	}
	srv.CloseClientConnections()
	srv.Close()
	if err := primary.Close(); err != nil {
		t.Fatalf("primary close: %v", err)
	}

	waitFor(t, 10*time.Second, func() bool { return runtime.NumGoroutine() <= baseline+2 }, func() string {
		return fmt.Sprintf("goroutines = %d, baseline %d — replication teardown leaked", runtime.NumGoroutine(), baseline)
	})
}

// BenchmarkReportPathReplicated is BenchmarkReportPath's hot path with
// a live follower attached, measuring what replication adds to the
// primary's acknowledgment latency.
//
// follower=stream is the acceptance number (≤10% over journal=interval,
// BENCH_serve.json): the follower consumes the stream but applies
// nothing, so the measurement isolates exactly what rides the primary's
// ack path — the ship-before-ack socket write. follower=inproc runs a
// full applying follower in the same process; on a small CI box its
// apply pipeline (decode, shard locks, its own journal) competes for
// the same cores and inflates wall time with work that a real follower
// does on its own machine.
func BenchmarkReportPathReplicated(b *testing.B) {
	const devices = 64
	const batch = 16
	reports := make([]wire.DeviceReport, batch)
	for i := range reports {
		reports[i] = wire.DeviceReport{Device: i * (devices / batch), ConsumedJ: 0.001}
	}
	body := mustMarshalB(b, &wire.ReportRequest{V: wire.Version, Reports: reports})

	newBenchPrimary := func(b *testing.B) (*Service, *httptest.Server, string) {
		cfg := Config{Devices: devices, BatteryJ: 1e6, CapacityJ: 2e6,
			JournalDir: b.TempDir(), FsyncPolicy: FsyncInterval}
		primary, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		srv := httptest.NewServer(primary.Handler())
		return primary, srv, strings.TrimPrefix(srv.URL, "http://")
	}
	waitLive := func(b *testing.B, primary *Service) {
		deadline := time.Now().Add(10 * time.Second)
		for {
			rs := primary.Stats().Replication
			if rs != nil && len(rs.Followers) > 0 && rs.Followers[0].Live {
				return
			}
			if time.Now().After(deadline) {
				b.Fatal("follower never attached")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	loop := func(b *testing.B, h http.Handler) {
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

	b.Run("follower=stream", func(b *testing.B) {
		primary, srv, addr := newBenchPrimary(b)
		resp, err := http.Get("http://" + addr + "/v1/replicate?from=0&epoch=1&id=bench")
		if err != nil {
			b.Fatal(err)
		}
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			_, _ = io.Copy(io.Discard, resp.Body)
		}()
		defer func() {
			srv.CloseClientConnections()
			srv.Close()
			_ = primary.Close()
			_ = resp.Body.Close()
			<-drained
		}()
		waitLive(b, primary)
		loop(b, primary.Handler())
	})

	b.Run("follower=inproc", func(b *testing.B) {
		primary, srv, addr := newBenchPrimary(b)
		fcfg := Config{Devices: devices, BatteryJ: 1e6, CapacityJ: 2e6,
			JournalDir: b.TempDir(), FsyncPolicy: FsyncInterval,
			Role: wire.RoleFollower, PrimaryAddr: addr, FollowerID: "bench"}
		follower, err := New(fcfg)
		if err != nil {
			b.Fatal(err)
		}
		defer func() {
			_ = follower.Close()
			srv.CloseClientConnections()
			srv.Close()
			_ = primary.Close()
		}()
		waitLive(b, primary)
		loop(b, primary.Handler())
		// Still timed: the follower's work allocates too, so wait until
		// it has applied every event and each run counts all of it.
		deadline := time.Now().Add(10 * time.Second)
		for follower.store.Seq() != primary.store.Seq() {
			if time.Now().After(deadline) {
				b.Fatalf("follower at seq %d, primary at seq %d", follower.store.Seq(), primary.store.Seq())
			}
			time.Sleep(time.Millisecond)
		}
	})
}

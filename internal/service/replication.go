package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/journal"
	"repro/internal/replicate"
	"repro/internal/resilience"
	"repro/wire"
)

// This file is the service side of hot-standby replication (see
// internal/replicate for the stream machinery and DESIGN.md
// "Replication contract" for the invariants):
//
//   - A journaled primary routes every mutation append through a
//     replicate.Hub, which ships the event to every attached follower
//     before the client is acknowledged (ship-before-ack).
//   - A follower (-role follower -primary <addr>) boots from its own
//     journal, then tails the primary's stream, applying frames under
//     the same shard locks the live handlers use and appending them to
//     its local journal in sequence lockstep. It answers stateless
//     solves normally and refuses mutations with 503 not_primary plus
//     a Leader hint header.
//   - Failover is fenced by a monotonic epoch persisted beside the
//     journal: POST /v1/promote bumps it, and any node that sees
//     evidence of a higher epoch (an X-Reap-Epoch header or a follower
//     connect from a later term) refuses mutations with 409
//     stale_epoch instead of split-braining.
//   - A full disk (journal.ErrDiskFull) flips the node into sticky
//     read-only degraded mode: mutations answer 503 degraded, solves
//     keep serving.

// role classifies the node for /healthz: degraded and fenced trump the
// replication role because they are what a load balancer must route
// on — both refuse every mutation.
func (s *Service) role() string {
	switch {
	case s.degraded.Load():
		return wire.RoleDegraded
	case s.fenced.Load():
		return wire.RoleFenced
	case s.follower.Load():
		return wire.RoleFollower
	default:
		return wire.RolePrimary
	}
}

// noteEpoch records evidence that epoch e is in force somewhere. The
// node remembers the high-water mark (a later promotion must out-bid
// it) and, if it believed itself primary, self-fences: a primary that
// has seen a higher term can no longer safely acknowledge mutations.
func (s *Service) noteEpoch(e uint64) {
	for {
		cur := s.maxSeenEpoch.Load()
		if e <= cur || s.maxSeenEpoch.CompareAndSwap(cur, e) {
			break
		}
	}
	if e > s.epoch.Load() && !s.follower.Load() {
		s.fenced.Store(true)
	}
}

// gateWrite runs the replication-role gates every state-mutating
// endpoint passes after admission — epoch fencing, follower refusal,
// degraded refusal — writing the refusal itself when the request may
// not proceed. Stateless solves never come here.
func (s *Service) gateWrite(w http.ResponseWriter, r *http.Request) bool {
	if h := r.Header.Get("X-Reap-Epoch"); h != "" {
		reqEpoch, err := strconv.ParseUint(h, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest,
				wire.Errorf(wire.CodeMalformed, "X-Reap-Epoch: %v", err))
			return false
		}
		if local := s.epoch.Load(); reqEpoch != local {
			if reqEpoch > local {
				// The client has seen a later term than us: we are the
				// stale ex-primary. Fence before answering.
				s.noteEpoch(reqEpoch)
			}
			writeError(w, http.StatusConflict, wire.Errorf(wire.CodeStaleEpoch,
				"request at epoch %d, node at epoch %d", reqEpoch, local))
			return false
		}
	}
	if s.fenced.Load() {
		writeError(w, http.StatusConflict, wire.Errorf(wire.CodeStaleEpoch,
			"node fenced at epoch %d: a higher epoch is in force elsewhere", s.epoch.Load()))
		return false
	}
	if s.refuseFollower(w, "send mutations to the primary") {
		return false
	}
	if s.degraded.Load() {
		writeError(w, http.StatusServiceUnavailable, wire.Errorf(wire.CodeDegraded,
			"journal disk full: node is read-only (solves still served)"))
		return false
	}
	return true
}

// refuseFollower answers 503 not_primary, with the primary as the
// Leader hint, when this node is a follower; action tells the client
// where to go instead.
func (s *Service) refuseFollower(w http.ResponseWriter, action string) bool {
	if !s.follower.Load() {
		return false
	}
	if s.cfg.PrimaryAddr != "" {
		w.Header().Set("Leader", s.cfg.PrimaryAddr)
	}
	writeError(w, http.StatusServiceUnavailable, wire.Errorf(wire.CodeNotPrimary,
		"this node is a follower; %s", action))
	return true
}

// replicationControl reports the paths that must stay reachable under
// overload and never count as client work: the replication stream
// (long-lived — it would pin a gate slot forever), follower acks, and
// the promote action an operator needs exactly when the fleet is on
// fire.
func replicationControl(path string) bool {
	return path == "/v1/replicate" || path == "/v1/replicate/ack" || path == "/v1/promote"
}

// handleReplicate is GET /v1/replicate?from=<seq>: the primary-side
// journal-shipping stream. Fencing runs before a single frame is sent;
// after the 200 commits, errors can only end the stream (the follower
// reconnects with backoff).
func (s *Service) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if s.hub == nil {
		writeError(w, http.StatusServiceUnavailable, wire.Errorf(wire.CodeNotPrimary,
			"replication requires a journal (-journal)"))
		return
	}
	if s.refuseFollower(w, "replicate from the primary") {
		return
	}
	q := r.URL.Query()
	from, err := strconv.ParseUint(valueOr(q.Get("from"), "0"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, wire.Errorf(wire.CodeMalformed, "from: %v", err))
		return
	}
	reqEpoch, err := strconv.ParseUint(valueOr(q.Get("epoch"), "0"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, wire.Errorf(wire.CodeMalformed, "epoch: %v", err))
		return
	}
	id := q.Get("id")
	if id == "" {
		id = r.RemoteAddr
	}
	local := s.epoch.Load()
	if reqEpoch > local {
		s.noteEpoch(reqEpoch)
		writeError(w, http.StatusConflict, wire.Errorf(wire.CodeStaleEpoch,
			"follower at epoch %d, this node at epoch %d: node is stale", reqEpoch, local))
		return
	}
	if s.fenced.Load() {
		writeError(w, http.StatusConflict, wire.Errorf(wire.CodeStaleEpoch,
			"node fenced at epoch %d", local))
		return
	}
	// A follower from an older epoch carries history from a fenced
	// primary; its journal may hold unacknowledged events ours never
	// saw, so it must re-root from a snapshot rather than catch up.
	bootstrap := q.Get("resync") == "1" || reqEpoch < local
	_ = s.hub.ServeStream(r.Context(), w, id, from, bootstrap)
}

func valueOr(v, def string) string {
	if v == "" {
		return def
	}
	return v
}

// handleReplicateAck is POST /v1/replicate/ack: followers report the
// sequence they have durably applied through. Best-effort lag
// accounting — correctness never rides on acks.
func (s *Service) handleReplicateAck(w http.ResponseWriter, r *http.Request) {
	var req wire.ReplicateAckRequest
	if !decode(w, r, &req, &req.V) {
		return
	}
	if s.hub == nil || s.follower.Load() {
		writeError(w, http.StatusServiceUnavailable,
			wire.Errorf(wire.CodeNotPrimary, "this node is not a replication primary"))
		return
	}
	if local := s.epoch.Load(); req.Epoch > local {
		s.noteEpoch(req.Epoch)
		writeError(w, http.StatusConflict, wire.Errorf(wire.CodeStaleEpoch,
			"ack at epoch %d, node at epoch %d", req.Epoch, local))
		return
	}
	s.hub.RecordAck(req.ID, req.Seq)
	writeJSON(w, http.StatusOK, &wire.ReplicateAckResponse{V: wire.Version})
}

// handlePromote is POST /v1/promote: the admin failover action. On a
// follower it stops the tail stream (waiting for the goroutine — no
// leaks), bumps the epoch past every term this node has ever seen,
// persists it before answering, and starts acknowledging mutations.
// Idempotent on a node that is already the primary; a fenced ex-primary
// may also be promoted, which re-arms it at a winning epoch.
func (s *Service) handlePromote(w http.ResponseWriter, r *http.Request) {
	var req wire.PromoteRequest
	if !decode(w, r, &req, &req.V) {
		return
	}
	if s.store == nil {
		writeError(w, http.StatusBadRequest,
			wire.Errorf(wire.CodeInvalidConfig, "promotion requires a journal (-journal)"))
		return
	}
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if s.follower.Load() || s.fenced.Load() {
		s.stopTailLocked()
		e := s.epoch.Load()
		if m := s.maxSeenEpoch.Load(); m > e {
			e = m
		}
		e++
		// Persist before acknowledging: a promotion the admin saw
		// succeed must survive an immediate crash, or the restarted node
		// would rejoin at the old epoch and fence itself.
		if err := replicate.SaveEpoch(s.cfg.JournalDir, e); err != nil {
			writeError(w, http.StatusInternalServerError,
				wire.Errorf(wire.CodeInternal, "persisting epoch: %v", err))
			return
		}
		s.epoch.Store(e)
		s.follower.Store(false)
		s.fenced.Store(false)
	}
	writeJSON(w, http.StatusOK, &wire.PromoteResponse{
		V: wire.Version, Role: wire.RolePrimary,
		Epoch: s.epoch.Load(), Seq: s.store.Seq(),
	})
}

// startTail launches the follower's stream client behind a recover
// boundary. Called from New (before the service serves anything).
func (s *Service) startTail() {
	ctx, cancel := context.WithCancel(context.Background()) //lint:reapvet ctxflow -- the tail outlives every request; its root is the service lifecycle, canceled by stopTailLocked
	done := make(chan struct{})
	s.tailCancel, s.tailDone = cancel, done
	s.tailer = replicate.NewTailer(replicate.TailConfig{
		Primary:     s.cfg.PrimaryAddr,
		ID:          s.cfg.FollowerID,
		From:        s.store.Seq,
		Epoch:       s.epoch.Load,
		OnHello:     s.replHello,
		OnSnapshot:  s.replSnapshot,
		OnEvent:     s.replEvent,
		OnHeartbeat: s.noteFrame,
	})
	t := s.tailer
	resilience.Go("replicate-tail", s.backgroundPanic, func() {
		defer close(done)
		t.Run(ctx)
	})
}

// stopTailLocked cancels the tail stream and waits for its goroutine to
// exit. Callers hold promoteMu (which serializes Close and promote).
func (s *Service) stopTailLocked() {
	if s.tailCancel == nil {
		return
	}
	s.tailCancel()
	<-s.tailDone
	s.tailCancel = nil
}

// noteFrame records stream liveness: the primary's position and when we
// last heard from it, on every applied frame and on each heartbeat of
// an idle stream. Tail-goroutine only; plain stores suffice.
func (s *Service) noteFrame(primarySeq uint64) {
	if primarySeq > s.primarySeq.Load() {
		s.primarySeq.Store(primarySeq)
	}
	s.lastFrame.Store(time.Now().UnixNano())
}

// replHello vets the primary's term at stream start. A primary behind
// our epoch is a zombie — refuse the stream; a primary ahead of us is
// the new truth — persist and adopt its epoch before applying anything
// from it.
func (s *Service) replHello(epoch, seq uint64) error {
	local := s.epoch.Load()
	if epoch < local {
		return fmt.Errorf("%w: primary at epoch %d, behind local %d", replicate.ErrStream, epoch, local)
	}
	if epoch > local {
		if err := replicate.SaveEpoch(s.cfg.JournalDir, epoch); err != nil {
			return err
		}
		s.epoch.Store(epoch)
	}
	s.noteFrame(seq)
	return nil
}

// replSnapshot installs a full-state snapshot frame: discard local
// fleet state and journal history, re-root both at seq. Runs with every
// shard lock held — the same consistent cut compaction takes — so
// neither a mutation nor a concurrent compaction can interleave.
func (s *Service) replSnapshot(seq uint64, payload []byte) error {
	lockShards(s.shards)
	defer unlockShards(s.shards)
	if err := s.restoreSnapshot(payload); err != nil {
		return err
	}
	if err := s.store.Reset(payload, seq); err != nil {
		if errors.Is(err, journal.ErrDiskFull) {
			s.degraded.Store(true)
		}
		return err
	}
	s.appendsAtCompact.Store(s.store.Stats().Appended)
	s.applied.Add(1)
	s.noteFrame(seq)
	return nil
}

// replEvent applies one replicated journal event: under the locks of
// every shard it touches, the event is appended to the local journal in
// sequence lockstep with the primary (acked⇒journaled holds on the
// follower too) and then applied with replay semantics. An event whose
// shards do not all resolve, or a sequence mismatch, means our history
// diverged — ErrOutOfSync forces a snapshot resync on reconnect.
func (s *Service) replEvent(seq uint64, payload []byte) error {
	ev, err := decodeEvent(payload)
	if err != nil {
		return fmt.Errorf("%w: %v", replicate.ErrOutOfSync, err)
	}
	var buf [defaultShards]*shard
	shs, valid, werr := s.shardsOf(ev, buf[:0])
	if valid < ev.mutations() {
		return fmt.Errorf("%w: %v", replicate.ErrOutOfSync, werr)
	}
	lockShards(shs)
	defer unlockShards(shs)
	if want := s.store.Seq() + 1; seq != want {
		return fmt.Errorf("%w: stream at event %d, local journal expects %d",
			replicate.ErrOutOfSync, seq, want)
	}
	if _, err := s.store.Append(payload); err != nil {
		if errors.Is(err, journal.ErrDiskFull) {
			s.degraded.Store(true)
		}
		return err
	}
	// Apply failures are skipped exactly as boot replay skips them: only
	// successful mutations were journaled by the primary, so a re-failure
	// here is the same deterministic no-op it was there.
	var n int
	_ = s.applyEvent(ev, nil, &n)
	s.applied.Add(1)
	s.noteFrame(seq)
	return nil
}

// replicationStats builds the /v1/stats replication block; nil when the
// node runs without a journal.
func (s *Service) replicationStats() *wire.ReplicationStats {
	if s.store == nil {
		return nil
	}
	rs := &wire.ReplicationStats{Role: s.role(), Epoch: s.epoch.Load()}
	if s.follower.Load() {
		rs.Primary = s.cfg.PrimaryAddr
		rs.Applied = s.applied.Load()
		if t := s.tailer; t != nil {
			rs.Connected = t.Connected()
			rs.Reconnects = t.Reconnects()
			rs.Resyncs = t.Resyncs()
		}
		if ps, local := s.primarySeq.Load(), s.store.Seq(); ps > local {
			rs.LagEvents = ps - local
		}
		if lf := s.lastFrame.Load(); lf != 0 {
			rs.LagS = time.Since(time.Unix(0, lf)).Seconds()
		}
		return rs
	}
	if s.hub != nil {
		for _, f := range s.hub.Followers() {
			rs.Followers = append(rs.Followers, wire.FollowerLag{
				ID: f.ID, Live: f.Live,
				ShippedSeq: f.ShippedSeq, AckSeq: f.AckSeq, AckAgeS: f.AckAgeS,
			})
		}
	}
	return rs
}

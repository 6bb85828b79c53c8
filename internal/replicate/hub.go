package replicate

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/journal"
)

// heartbeatInterval is the idle-stream keepalive interval; it bounds
// how stale a follower's lag measurement can get.
const heartbeatInterval = 500 * time.Millisecond

// shipTimeout bounds how long a slow follower may stall the append
// path: a live write that cannot complete within it detaches the
// follower, which must reconnect and catch up.
const shipTimeout = time.Second

// HubConfig configures the primary side of replication.
type HubConfig struct {
	// Store is the journal every append flows through.
	Store *journal.Store
	// Epoch returns the node's current term, stamped on hellos so
	// followers adopt it.
	Epoch func() uint64
	// WrapStream, when non-nil, wraps each stream's writer — the chaos
	// seam for injecting mid-frame tears.
	WrapStream func(io.Writer) io.Writer
}

// FollowerStatus is one follower's replication position for /v1/stats.
type FollowerStatus struct {
	ID string `json:"id"`
	// Live reports an attached stream (false: last known ack of a
	// detached follower).
	Live bool `json:"live"`
	// ShippedSeq is the last event written to the follower's stream.
	ShippedSeq uint64 `json:"shipped_seq"`
	// AckSeq is the last sequence number the follower acknowledged
	// applying, and AckAgeS how long ago it said so.
	AckSeq  uint64  `json:"ack_seq"`
	AckAgeS float64 `json:"ack_age_s"`
}

// Hub is the primary-side replication fan-out. All appends are routed
// through it: under one mutex the event is journaled and then written
// (flushed) to every live follower stream, so the kernel owns delivery
// before the client sees an acknowledgment — ship-before-ack.
type Hub struct {
	cfg HubConfig

	mu     sync.Mutex
	live   map[string]*liveFollower
	acks   map[string]ackState
	closed bool
	buf    []byte // the last event Append shipped, message then frame, reused by the next
}

type liveFollower struct {
	id      string
	write   func([]byte) error // frame write + flush, deadline-bounded
	shipped uint64
	gone    chan struct{} // closed exactly once, by detachLocked
}

type ackState struct {
	seq uint64
	at  time.Time
}

// NewHub builds the primary-side fan-out over store.
func NewHub(cfg HubConfig) *Hub {
	return &Hub{
		cfg:  cfg,
		live: make(map[string]*liveFollower),
		acks: make(map[string]ackState),
	}
}

// Append journals payload and ships it to every live follower before
// returning — the replication-aware replacement for Store.Append on
// the primary's mutation path. A follower whose write fails or times
// out is detached (it reconnects and catches up from the journal);
// the append itself never fails on account of a follower.
func (h *Hub) Append(payload []byte) (uint64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	seq, err := h.cfg.Store.Append(payload)
	if err != nil {
		return seq, err
	}
	if len(h.live) > 0 {
		// The message goes in the front of h.buf and its frame after it.
		h.buf = Message{Kind: KindEvent, Seq: seq, Payload: payload}.AppendTo(h.buf[:0])
		n := len(h.buf)
		h.buf = journal.AppendFrame(h.buf, h.buf[:n])
		frame := h.buf[n:]
		for id, f := range h.live {
			if err := f.write(frame); err != nil {
				h.detachLocked(id, f)
				continue
			}
			f.shipped = seq
		}
	}
	return seq, nil
}

// RecordAck notes that follower id has applied through seq.
func (h *Hub) RecordAck(id string, seq uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if prev, ok := h.acks[id]; !ok || seq >= prev.seq {
		h.acks[id] = ackState{seq: seq, at: time.Now()}
	}
}

// Followers reports every known follower's position, live streams
// first-class and detached ones by their last ack.
func (h *Hub) Followers() []FollowerStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := time.Now()
	out := make([]FollowerStatus, 0, len(h.live)+len(h.acks))
	seen := make(map[string]bool, len(h.live))
	for id, f := range h.live {
		st := FollowerStatus{ID: id, Live: true, ShippedSeq: f.shipped}
		if a, ok := h.acks[id]; ok {
			st.AckSeq = a.seq
			st.AckAgeS = now.Sub(a.at).Seconds()
		}
		out = append(out, st)
		seen[id] = true
	}
	for id, a := range h.acks {
		if seen[id] {
			continue
		}
		out = append(out, FollowerStatus{ID: id, AckSeq: a.seq, AckAgeS: now.Sub(a.at).Seconds()})
	}
	return out
}

// Close detaches every live follower; their stream handlers return.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	for id, f := range h.live {
		h.detachLocked(id, f)
	}
}

// detachLocked removes f if it is still the registered stream for id,
// closing its gone channel exactly once. Callers hold h.mu.
func (h *Hub) detachLocked(id string, f *liveFollower) {
	if h.live[id] == f {
		delete(h.live, id)
		close(f.gone)
	}
}

// ServeStream runs one follower's replication stream to completion:
// hello, optional snapshot bootstrap, journal catch-up via a cursor,
// then live attachment (events arrive via Append, heartbeats from
// here) until the context ends, the hub closes, or a write fails.
//
// bootstrap forces a snapshot-first start (epoch mismatch or an
// explicit resync). Without it the stream starts from a snapshot when
// no cursor opens at from (retention dropped the events after it, or
// it lies past this store's history); the hello's Bootstrap flag says
// which start follows. A cursor that falls off retention mid-catch-up
// recovers by sending a snapshot frame in-stream — the follower treats
// any snapshot frame as "discard local state, re-root here".
func (h *Hub) ServeStream(ctx context.Context, w http.ResponseWriter, id string, from uint64, bootstrap bool) error {
	// The stream hijacks the connection: each frame then costs one raw
	// TCP write instead of a pass through the chunked encoder and its
	// double-buffered flush — and that write sits on the primary's
	// acknowledgment path for every mutation. The response head is
	// written by hand; the body is frames until connection close.
	conn, bw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		return fmt.Errorf("%w: response writer cannot stream: %v", ErrStream, err)
	}
	defer conn.Close()
	if _, err := bw.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nConnection: close\r\n\r\n"); err != nil {
		return fmt.Errorf("%w: response head: %v", ErrStream, err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("%w: response head: %v", ErrStream, err)
	}
	var sink io.Writer = conn
	if h.cfg.WrapStream != nil {
		sink = h.cfg.WrapStream(conn)
	}

	// The write deadline bounds a stalled follower, so it only needs to
	// be roughly right: refreshing it once per quarter-timeout instead
	// of per frame saves a setsockopt on the hot append path, at the
	// cost of the effective bound being shipTimeout±25%. Writes on one
	// stream never race: catch-up runs before the follower attaches,
	// and attached writes all happen under h.mu.
	var deadlineAt time.Time
	write := func(frame []byte) error {
		if now := time.Now(); now.Sub(deadlineAt) > shipTimeout/4 {
			_ = conn.SetWriteDeadline(now.Add(shipTimeout))
			deadlineAt = now
		}
		_, err := sink.Write(frame)
		return err
	}
	// Catch-up frames are built in fresh buffers, so a snapshot frame
	// is not pinned for the life of the stream.
	send := func(m Message) error { return write(journal.AppendFrame(nil, m.AppendTo(nil))) }

	st := h.cfg.Store
	var cur *journal.Cursor
	defer func() {
		if cur != nil {
			_ = cur.Close()
		}
	}()
	if !bootstrap {
		var err error
		cur, err = st.OpenCursor(from)
		if errors.Is(err, journal.ErrCompacted) {
			bootstrap = true
		} else if err != nil {
			return err
		}
	}
	if err := send(Message{Kind: KindHello, Epoch: h.cfg.Epoch(), Seq: st.Seq(), Bootstrap: bootstrap}); err != nil {
		return fmt.Errorf("%w: hello: %v", ErrStream, err)
	}
	// sendSnapshot re-roots the follower at the newest snapshot, read
	// back from its file, and points the cursor at the events that
	// follow it. A snapshot that cannot be read ends the stream, and the
	// follower reconnects.
	sendSnapshot := func() error {
		if cur != nil {
			_ = cur.Close()
		}
		snap, snapSeq, err := st.Snapshot()
		if err != nil {
			return err
		}
		if err := send(Message{Kind: KindSnapshot, Seq: snapSeq, Payload: snap}); err != nil {
			return fmt.Errorf("%w: snapshot: %v", ErrStream, err)
		}
		cur, err = st.OpenCursor(snapSeq)
		return err
	}
	if bootstrap {
		if err := sendSnapshot(); err != nil {
			return err
		}
	}

	// Catch-up: drain the journal to the follower until we are exactly
	// level with the store under the hub lock, then attach live.
	var f *liveFollower
	for f == nil {
		if ctx.Err() != nil {
			return nil
		}
		payload, seq, err := cur.Next()
		switch {
		case err == nil:
			if err := send(Message{Kind: KindEvent, Seq: seq, Payload: payload}); err != nil {
				return fmt.Errorf("%w: catch-up: %v", ErrStream, err)
			}
		case errors.Is(err, journal.ErrCompacted):
			// Retention outran this cursor; start over from the newest
			// snapshot, still in-stream.
			if err := sendSnapshot(); err != nil {
				return err
			}
		case errors.Is(err, journal.ErrNotReady):
			h.mu.Lock()
			if h.closed {
				h.mu.Unlock()
				return nil
			}
			// Append holds h.mu while journaling, so under the lock the
			// store seq is stable: equal means nothing is in flight and
			// every future event will be shipped to us by Append.
			if cur.Seq() == st.Seq() {
				f = &liveFollower{id: id, write: write, shipped: cur.Seq(), gone: make(chan struct{})}
				if old := h.live[id]; old != nil {
					h.detachLocked(id, old) // a reconnect supersedes its zombie
				}
				h.live[id] = f
			}
			h.mu.Unlock()
			if f == nil {
				// An append slipped in between Next and the lock (or a
				// tail record is mid-write); let it land.
				time.Sleep(time.Millisecond)
			}
		default:
			return err
		}
	}

	defer func() {
		h.mu.Lock()
		h.detachLocked(id, f)
		h.mu.Unlock()
	}()
	hb := time.NewTicker(heartbeatInterval)
	defer hb.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-f.gone:
			return nil
		case <-hb.C:
			h.mu.Lock()
			if h.live[id] != f {
				h.mu.Unlock()
				return nil
			}
			if err := send(Message{Kind: KindHeartbeat, Seq: st.Seq()}); err != nil {
				h.detachLocked(id, f)
				h.mu.Unlock()
				return nil
			}
			h.mu.Unlock()
		}
	}
}

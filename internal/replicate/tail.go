package replicate

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/journal"
)

// ackInterval rate-limits ack posts back to the primary. Acks ride the
// tail loop, after applying frames.
const ackInterval = 500 * time.Millisecond

// TailConfig configures a follower's stream client. The callbacks run
// on the tail goroutine, one frame at a time, and all of them must be
// set; returning an error drops the stream (reconnect with backoff).
// OnEvent returning ErrOutOfSync additionally forces a snapshot resync
// on the next connect.
type TailConfig struct {
	// Primary is the host:port the follower replicates from.
	Primary string
	// ID names this follower in the primary's lag accounting.
	ID string
	// From returns the local journal position: the connect asks for
	// events after it.
	From func() uint64
	// Epoch returns the local term, carried on every connect and ack
	// so a demoted primary fences itself against us.
	Epoch func() uint64
	// OnHello sees the primary's epoch and seq at stream start; an
	// error (e.g. the primary's epoch is behind ours — a zombie)
	// refuses the stream.
	OnHello func(epoch, seq uint64) error
	// OnSnapshot installs a full state snapshot at seq, discarding
	// local history.
	OnSnapshot func(seq uint64, payload []byte) error
	// OnEvent applies one replicated journal event.
	OnEvent func(seq uint64, payload []byte) error
	// OnHeartbeat observes the primary's seq on an idle stream.
	OnHeartbeat func(seq uint64)
}

// Tailer pulls the replication stream and keeps pulling: reconnect
// with exponential backoff on any failure, snapshot resync when the
// service reports divergence, clean teardown when the context ends.
type Tailer struct {
	cfg    TailConfig
	client *http.Client

	connected  atomic.Bool
	reconnects atomic.Uint64
	resyncs    atomic.Uint64
	forceSync  atomic.Bool
	lastAcked  atomic.Uint64
}

// NewTailer builds a tailer with its own HTTP client for the stream and
// the acks; Run starts it. The client has no overall timeout, because
// the stream request legitimately lasts forever: cancellation comes
// from the Run context.
func NewTailer(cfg TailConfig) *Tailer {
	return &Tailer{cfg: cfg, client: &http.Client{}}
}

// Connected reports whether a stream is currently established.
func (t *Tailer) Connected() bool { return t.connected.Load() }

// Reconnects counts stream (re)establishment attempts after the first.
func (t *Tailer) Reconnects() uint64 { return t.reconnects.Load() }

// Resyncs counts snapshot re-bootstraps forced by divergence.
func (t *Tailer) Resyncs() uint64 { return t.resyncs.Load() }

// Run pulls the stream until ctx ends. It is the follower's whole
// replication lifecycle; the caller owns the goroutine (reapd wraps it
// in resilience.Go).
func (t *Tailer) Run(ctx context.Context) {
	backoff := 100 * time.Millisecond
	const maxBackoff = 2 * time.Second
	for first := true; ; first = false {
		if !first {
			t.reconnects.Add(1)
			select {
			case <-ctx.Done():
				return
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
		if ctx.Err() != nil {
			return
		}
		progressed, err := t.stream(ctx)
		if ctx.Err() != nil {
			return
		}
		if progressed {
			backoff = 100 * time.Millisecond
		}
		if errors.Is(err, ErrOutOfSync) {
			t.forceSync.Store(true)
			t.resyncs.Add(1)
		}
	}
}

// stream runs one connection: request, hello, frame loop. progressed
// reports whether any frame was applied (resets backoff).
func (t *Tailer) stream(ctx context.Context) (progressed bool, err error) {
	q := url.Values{}
	q.Set("from", strconv.FormatUint(t.cfg.From(), 10))
	q.Set("epoch", strconv.FormatUint(t.cfg.Epoch(), 10))
	q.Set("id", t.cfg.ID)
	if t.forceSync.Swap(false) {
		q.Set("resync", "1")
	}
	u := "http://" + t.cfg.Primary + "/v1/replicate?" + q.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return false, fmt.Errorf("%w: %v", ErrStream, err)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return false, fmt.Errorf("%w: %v", ErrStream, err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("%w: primary answered %d", ErrStream, resp.StatusCode)
	}

	r := bufio.NewReader(resp.Body)
	lastAck := time.Now()
	sawHello := false
	for {
		p, rerr := journal.ReadFrame(r)
		if rerr != nil {
			// io.EOF: primary went away cleanly; ErrTornTail: mid-frame
			// cut. Either way the CRC framing guarantees nothing partial
			// was applied — reconnect resumes exactly at From().
			return progressed, fmt.Errorf("%w: %v", ErrStream, rerr)
		}
		m, derr := Decode(p)
		if derr != nil {
			return progressed, derr
		}
		switch m.Kind {
		case KindHello:
			sawHello = true
			if err := t.cfg.OnHello(m.Epoch, m.Seq); err != nil {
				return progressed, err
			}
			t.connected.Store(true)
			defer t.connected.Store(false)
		case KindSnapshot:
			if !sawHello {
				return progressed, fmt.Errorf("%w: frame before hello", ErrBadFrame)
			}
			if err := t.cfg.OnSnapshot(m.Seq, m.Payload); err != nil {
				return progressed, err
			}
			progressed = true
		case KindEvent:
			if !sawHello {
				return progressed, fmt.Errorf("%w: frame before hello", ErrBadFrame)
			}
			if err := t.cfg.OnEvent(m.Seq, m.Payload); err != nil {
				return progressed, err
			}
			progressed = true
		case KindHeartbeat:
			t.cfg.OnHeartbeat(m.Seq)
		}
		if time.Since(lastAck) >= ackInterval {
			t.postAck(ctx)
			lastAck = time.Now()
		}
	}
}

// postAck tells the primary how far we have applied. Best-effort: lag
// accounting, not correctness, rides on it.
func (t *Tailer) postAck(ctx context.Context) {
	seq := t.cfg.From()
	if seq == t.lastAcked.Load() {
		return
	}
	actx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	// encoding/json escapes any ID, control bytes and invalid UTF-8
	// included; a struct of a string and integers always encodes.
	body, _ := json.Marshal(struct {
		V     int    `json:"v"`
		ID    string `json:"id"`
		Epoch uint64 `json:"epoch"`
		Seq   uint64 `json:"seq"`
	}{1, t.cfg.ID, t.cfg.Epoch(), seq})
	req, err := http.NewRequestWithContext(actx, http.MethodPost,
		"http://"+t.cfg.Primary+"/v1/replicate/ack", bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.client.Do(req)
	if err != nil {
		return
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	_ = resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.lastAcked.Store(seq)
	}
}

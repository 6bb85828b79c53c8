// Package replicate turns reapd's write-ahead journal into a
// hot-standby replication channel: a primary ships every journaled
// event to followers over a long-lived HTTP stream, followers apply
// them under the same locks the service uses, and a persisted
// monotonic epoch fences a stale ex-primary after a failover.
//
// The design leans entirely on invariants the journal already
// guarantees (see DESIGN.md "Replication contract"):
//
//   - The journal is an ordered, CRC-framed log of every acknowledged
//     state mutation, so "replicate the journal" is exactly "replicate
//     the service state". Stream frames reuse the journal's framing
//     (journal.AppendFrame/ReadFrame) and its minimal-varint reader
//     (journal.ReadUvarint): a follower validates shipped bytes with
//     the same parser its boot replay trusts, and a torn stream is
//     detected the same way as a torn segment.
//   - Ship-before-ack: the Hub writes an appended event to every live
//     follower's connection (through the kernel send buffer) while
//     still inside the append critical section, before the client's
//     200 is written. kill -9 of the primary cannot revoke bytes the
//     kernel has accepted for delivery, so every acknowledged event is
//     either on a follower's wire or the follower was already detached
//     (and will catch up from the journal on reconnect). The Hub
//     frames each live event once, in one buffer it reuses.
//   - Catch-up reads come from the journal itself via a Cursor —
//     retained rotated segments plus snapshot-first bootstrap when no
//     cursor opens at the follower's position, which the hello frame
//     announces — so the Hub holds no backlog of its own.
//   - Fencing: the epoch is a monotonic term persisted in the journal
//     directory. Promotion bumps it; every data- and replication-plane
//     exchange carries it; the side with the lower epoch loses. A
//     rejoining ex-primary is told stale_epoch and demotes itself.
package replicate

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/journal"
)

// Frame kinds carried by a replication stream. Every frame is a
// journal-framed record whose payload starts [format, kind].
const (
	// KindHello opens a stream: the primary's epoch, its current
	// sequence number, and whether a snapshot bootstrap follows.
	KindHello = byte(1)
	// KindSnapshot installs a full state snapshot at Seq; the follower
	// must discard local history and re-root (journal Store.Reset).
	KindSnapshot = byte(2)
	// KindEvent carries one journal event payload with its sequence
	// number; the follower applies and appends it locally.
	KindEvent = byte(3)
	// KindHeartbeat carries the primary's current sequence number so an
	// idle follower can measure lag and freshness.
	KindHeartbeat = byte(4)
)

// frameFormat versions the frame payload encoding.
const frameFormat = 1

// ErrBadFrame reports a replication frame that decoded under the
// journal CRC but does not parse as a known message — protocol
// corruption or version skew, never silently skipped.
var ErrBadFrame = errors.New("replicate: malformed frame")

// ErrStream reports a replication stream that cannot be established or
// has failed; the remedy is reconnect-and-resync, not apply.
var ErrStream = errors.New("replicate: stream failed")

// ErrOutOfSync reports a follower whose local journal position no
// longer matches the primary's stream — divergence. The follower must
// drop the stream and re-bootstrap from a snapshot.
var ErrOutOfSync = errors.New("replicate: follower out of sync")

// Message is one decoded replication frame.
type Message struct {
	Kind      byte
	Epoch     uint64 // hello: primary's current epoch
	Seq       uint64 // hello/heartbeat: primary seq; snapshot/event: frame's seq
	Bootstrap bool   // hello: a snapshot frame follows
	Payload   []byte // snapshot state or journal event payload
}

// AppendTo appends m's stream-frame payload to dst (the caller wraps it
// with journal.AppendFrame for the CRC framing).
func (m Message) AppendTo(dst []byte) []byte {
	dst = slices.Grow(dst, 2+2*binary.MaxVarintLen64+1+len(m.Payload))
	dst = append(dst, frameFormat, m.Kind)
	dst = binary.AppendUvarint(dst, m.Epoch)
	dst = binary.AppendUvarint(dst, m.Seq)
	var flags byte
	if m.Bootstrap {
		flags |= 1
	}
	dst = append(dst, flags)
	return append(dst, m.Payload...)
}

// Decode parses a stream-frame payload. It accepts only the bytes
// AppendTo writes, so every accepted payload re-encodes to itself:
// unknown formats, unknown kinds, truncated or non-minimal varints,
// flag bits beyond bit 0 and trailing bytes on payload-less kinds all
// fail with ErrBadFrame.
func Decode(p []byte) (Message, error) {
	if len(p) < 2 {
		return Message{}, fmt.Errorf("%w: %d bytes", ErrBadFrame, len(p))
	}
	if p[0] != frameFormat {
		return Message{}, fmt.Errorf("%w: unknown format %d", ErrBadFrame, p[0])
	}
	m := Message{Kind: p[1]}
	rest := p[2:]
	var err error
	if m.Epoch, rest, err = readUvarint(rest, "epoch"); err != nil {
		return Message{}, err
	}
	if m.Seq, rest, err = readUvarint(rest, "seq"); err != nil {
		return Message{}, err
	}
	if len(rest) < 1 {
		return Message{}, fmt.Errorf("%w: missing flags", ErrBadFrame)
	}
	if rest[0] > 1 {
		return Message{}, fmt.Errorf("%w: unknown flag bits %#x", ErrBadFrame, rest[0])
	}
	m.Bootstrap = rest[0] == 1
	rest = rest[1:]
	switch m.Kind {
	case KindHello, KindHeartbeat:
		if len(rest) != 0 {
			return Message{}, fmt.Errorf("%w: %d trailing bytes on kind %d", ErrBadFrame, len(rest), m.Kind)
		}
	case KindSnapshot, KindEvent:
		m.Payload = rest
	default:
		return Message{}, fmt.Errorf("%w: unknown kind %d", ErrBadFrame, m.Kind)
	}
	return m, nil
}

// readUvarint reads one uvarint field of a frame in its minimal form,
// the only one AppendTo writes.
func readUvarint(p []byte, field string) (uint64, []byte, error) {
	v, rest, err := journal.ReadUvarint(p)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %s: %v", ErrBadFrame, field, err)
	}
	return v, rest, nil
}

// epochFile is the fencing token's home, beside the journal segments
// it fences: "epoch" holding the term as fixed-width hex.
const epochFile = "epoch"

// LoadEpoch reads the persisted epoch from dir; a missing file is
// epoch 1 — the first term, held by a node that has never seen a
// promotion. (Zero is reserved to mean "no epoch": clients that carry
// no fencing token, wire fields elided by omitempty.)
func LoadEpoch(dir string) (uint64, error) {
	b, err := os.ReadFile(filepath.Join(dir, epochFile))
	if err != nil {
		if os.IsNotExist(err) {
			return 1, nil
		}
		return 0, fmt.Errorf("replicate: load epoch: %w", err)
	}
	e, err := strconv.ParseUint(strings.TrimSpace(string(b)), 16, 64)
	if err != nil {
		return 0, fmt.Errorf("replicate: load epoch: %w", err)
	}
	return e, nil
}

// SaveEpoch durably persists epoch in dir with journal.InstallFile
// (temp write, fsync, atomic rename, directory sync). Fencing is only
// as strong as this write: a promotion must not be acknowledged before
// its epoch is on disk.
func SaveEpoch(dir string, epoch uint64) error {
	if err := journal.InstallFile(filepath.Join(dir, epochFile), fmt.Appendf(nil, "%016x\n", epoch)); err != nil {
		return fmt.Errorf("replicate: save epoch: %w", err)
	}
	return nil
}

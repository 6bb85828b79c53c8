// Package journal is the crash-safety substrate of reapd: an
// append-only, length-prefixed, CRC-checked write-ahead log of opaque
// payloads plus periodically compacted snapshots, owned by a Store
// rooted in one directory.
//
// Layout and invariants (see DESIGN.md "Failure model"):
//
//   - The directory holds snapshot files "snap-%016x" and log segments
//     "wal-%016x", both named by the sequence number (count of events
//     applied) at which they begin. A snapshot is one record holding
//     the state after its first `seq` events; the matching wal segment
//     holds the events that follow it.
//   - Every record is framed [4B big-endian payload length | 4B CRC-32C
//     of the payload | payload]. A record is valid only if its frame is
//     complete and the checksum matches; the first invalid record ends
//     the readable prefix of a segment — everything after it is
//     untrusted because framing is lost.
//   - An append frames its record in one buffer and hands it to the
//     kernel in one write(2) before returning, so an acknowledgment
//     survives kill -9; fdatasync frequency is the caller's policy
//     (Options.SyncEveryAppend, or explicit Sync calls on an interval)
//     and bounds loss on power failure, not process death.
//   - Compaction is atomic: the snapshot is written to a temp file,
//     fsynced, renamed into place, and only then are older segments and
//     snapshots removed. A crash at any point leaves a directory that
//     opens to a consistent prefix of history.
//   - Open recovers by picking the newest valid snapshot, replaying the
//     segments that follow it, and truncating a torn tail in place —
//     arbitrary trailing garbage never panics and never corrupts later
//     appends (Replay + truncate, fuzz-tested by FuzzReplay).
package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// frameSize is the per-record framing overhead: 4 bytes payload length,
// 4 bytes CRC-32C.
const frameSize = 8

// MaxPayload bounds a single record. The limit exists so a corrupted
// length field cannot make a reader allocate gigabytes; reapd's journal
// events are tens of bytes and snapshots grow linearly with the fleet.
const MaxPayload = 64 << 20

// castagnoli is the CRC-32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrTornTail reports that a segment ended in an incomplete or
// corrupted record. Replay surfaces it so callers can distinguish a
// clean tail from a truncated one; Open repairs it by truncating.
var ErrTornTail = errors.New("journal: torn tail")

// ErrDiskFull reports that an append could not reach stable storage
// because the device is out of space (ENOSPC or a short write). The
// daemon treats it as a mode change — flip to read-only degraded
// service — not a crash: solves need no disk.
var ErrDiskFull = errors.New("journal: disk full")

// ErrClosed reports a Store method called outside its appendable
// window: before Start or after Close/Abandon.
var ErrClosed = errors.New("journal: store not open for appends")

// ErrCorrupt reports a journal directory whose segment chain cannot
// reconstruct history — a missing segment or torn record mid-history.
// Unlike ErrTornTail at the tail (a crash artifact, repaired in place),
// corruption before the end means later events cannot be trusted.
var ErrCorrupt = errors.New("journal: corrupt directory")

// ErrVarint reports a varint ReadUvarint refuses: truncated, longer
// than 64 bits or not in its minimal form.
var ErrVarint = errors.New("journal: malformed varint")

// frameHeaderInto writes payload's frame header (length and CRC-32C)
// into buf[:frameSize].
func frameHeaderInto(buf, payload []byte) {
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
}

// AppendFrame appends payload framed as one journal record to dst,
// [length|CRC-32C|payload], so that a segment append is one write(2)
// and a crash can tear at most the tail record, never interleave two.
// The replication stream ships the same frames, so a follower validates
// shipped bytes with the exact parser its own boot replay trusts.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [frameSize]byte
	frameHeaderInto(hdr[:], payload)
	return append(append(dst, hdr[:]...), payload...)
}

// ReadUvarint reads the uvarint at the start of p and returns its value
// and the bytes after it. It accepts only the minimal form
// binary.AppendUvarint writes: a padded varint (a final 0x00 group)
// decodes to the same value from other bytes, so a decoder that took it
// would not re-encode its input. The event, snapshot and replication
// frame decoders read every varint with it.
func ReadUvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: truncated", ErrVarint)
	}
	if n > 1 && p[n-1] == 0 {
		return 0, nil, fmt.Errorf("%w: non-minimal % x", ErrVarint, p[:n])
	}
	return v, p[n:], nil
}

// ReadFrame reads one framed record from r. It returns io.EOF on a
// clean end (no bytes of a further record), and ErrTornTail when the
// stream ends mid-record, a read fails or the checksum fails: boot
// replay truncates a segment there, a replication tailer reconnects and
// resyncs instead of applying, and a Cursor waits for the writer. It
// returns no other error.
func ReadFrame(r io.Reader) ([]byte, error) {
	var frame [frameSize]byte
	if _, err := io.ReadFull(r, frame[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: incomplete frame", ErrTornTail)
	}
	n, err := frameLen(frame[:])
	if err != nil {
		return nil, err
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: incomplete payload", ErrTornTail)
	}
	if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(frame[4:8]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrTornTail)
	}
	return payload, nil
}

// frameLen returns the payload length a frame header declares, refusing
// one over MaxPayload as a torn record.
func frameLen(hdr []byte) (uint32, error) {
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n > MaxPayload {
		return 0, fmt.Errorf("%w: implausible record length %d", ErrTornTail, n)
	}
	return n, nil
}

// scanSegment reads every valid record of the file at path, calling fn
// for each. It returns the byte offset of the end of the valid prefix
// and whether the tail beyond it is torn. An error from fn aborts the
// scan.
func scanSegment(path string, fn func(payload []byte) error) (validEnd int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	for {
		payload, rerr := ReadFrame(r)
		if rerr != nil {
			if errors.Is(rerr, ErrTornTail) {
				return validEnd, true, nil
			}
			return validEnd, false, nil // clean EOF
		}
		if err := fn(payload); err != nil {
			return validEnd, false, err
		}
		validEnd += int64(frameSize + len(payload))
	}
}

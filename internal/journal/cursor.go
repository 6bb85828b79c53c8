package journal

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// ErrNotReady reports that a cursor has consumed everything currently
// readable: the next event is not on disk yet. Retry after more
// appends land — for a replication stream this is the "caught up,
// switch to live shipping" signal.
var ErrNotReady = errors.New("journal: cursor: next event not yet on disk")

// ErrCompacted reports that the events a cursor needs are no longer
// retained on disk (or never existed). The only way forward is a
// snapshot bootstrap.
var ErrCompacted = errors.New("journal: cursor: events not retained")

// errSegmentEnd is the internal "nothing more in this file" signal:
// either the segment finished (a successor exists) or the active tail
// has not been written yet. Next disambiguates via segmentAt.
var errSegmentEnd = errors.New("journal: cursor: segment end")

// Cursor reads committed events back out of a Store's on-disk
// segments, starting after a given sequence number — the read side of
// journal shipping. It tolerates a concurrently-appending writer: a
// half-written tail record reads as ErrNotReady (never as data,
// thanks to the CRC), and rotation is followed by hopping to the
// successor segment. A Cursor is not safe for concurrent use; each
// replication stream owns one.
type Cursor struct {
	s    *Store
	seq  uint64 // events consumed; the next Next returns seq+1
	f    *os.File
	path string
	off  int64
}

// OpenCursor positions a cursor so its first Next returns event from+1.
// It fails with ErrCompacted when that event is no longer on disk or
// does not exist yet (a position beyond history means the reader
// diverged from this store and must bootstrap, not wait).
func (s *Store) OpenCursor(from uint64) (*Cursor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started || s.closed {
		return nil, fmt.Errorf("%w: cursor before Start or after Close", ErrClosed)
	}
	if from > s.seq {
		return nil, fmt.Errorf("%w: cursor at %d beyond history (seq %d)", ErrCompacted, from, s.seq)
	}
	if len(s.disk) == 0 || from < s.disk[0].start {
		return nil, fmt.Errorf("%w: cursor at %d predates oldest retained segment", ErrCompacted, from)
	}
	return &Cursor{s: s, seq: from}, nil
}

// Seq returns the cursor position: the sequence number of the last
// event returned by Next (or the starting position before any Next).
func (c *Cursor) Seq() uint64 { return c.seq }

// Close releases the open segment file, if any. The cursor may be
// reused after Close; the next Next reopens at the current position.
func (c *Cursor) Close() error {
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}

// Next returns the next event payload and its sequence number.
// ErrNotReady means the event has not been appended (or fully written)
// yet; ErrCompacted means retention has removed it and the reader must
// re-bootstrap from a snapshot. Any other error is an I/O failure.
func (c *Cursor) Next() ([]byte, uint64, error) {
	for {
		if c.f == nil {
			if err := c.seek(); err != nil {
				return nil, 0, err
			}
		}
		payload, err := c.read()
		if err == nil {
			c.seq++
			return payload, c.seq, nil
		}
		if !errors.Is(err, errSegmentEnd) {
			return nil, 0, err
		}
		// End of the open file. If a successor segment starts exactly at
		// our position, rotation finished this one — hop. Otherwise the
		// tail is still being written (or, mid-segment, a record is only
		// partially visible): not ready yet.
		next, ok := c.s.segmentAt(c.seq)
		if !ok || next == c.path {
			return nil, 0, ErrNotReady
		}
		_ = c.f.Close()
		c.f = nil
		// Loop: seek reopens at c.seq, landing on the successor.
	}
}

// seek opens the segment containing event c.seq+1 and skips to it by
// hopping frame headers. A partially-written record encountered while
// skipping surfaces as ErrNotReady (the open is retried whole next
// call — skips are short and reopens rare).
func (c *Cursor) seek() error {
	path, start, ok := c.s.segmentContaining(c.seq)
	if !ok {
		return fmt.Errorf("%w: no segment holds event %d", ErrCompacted, c.seq+1)
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			// Removed by compaction between lookup and open.
			return fmt.Errorf("%w: segment for event %d removed", ErrCompacted, c.seq+1)
		}
		return fmt.Errorf("journal: cursor: %w", err)
	}
	var off int64
	var hdr [frameSize]byte
	for skip := c.seq - start; skip > 0; skip-- {
		_, err := f.ReadAt(hdr[:], off)
		var n uint32
		if err == nil {
			n, err = frameLen(hdr[:])
		}
		if err != nil {
			_ = f.Close()
			return ErrNotReady
		}
		off += int64(frameSize) + int64(n)
	}
	c.f, c.path, c.off = f, path, off
	return nil
}

// read attempts one framed record at the current offset with ReadFrame.
// Its two errors, io.EOF and ErrTornTail (anything short, torn or
// checksum-failed), map to errSegmentEnd: with a live writer those
// bytes may simply not all be visible yet, and the CRC guarantees a
// record is returned only when completely written.
func (c *Cursor) read() ([]byte, error) {
	payload, err := ReadFrame(io.NewSectionReader(c.f, c.off, math.MaxInt64-c.off))
	if err != nil {
		return nil, errSegmentEnd
	}
	c.off += int64(frameSize + len(payload))
	return payload, nil
}

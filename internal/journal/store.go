package journal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// Options configures a Store.
type Options struct {
	// SyncEveryAppend runs fdatasync after every append — the "always"
	// fsync policy: an acknowledged event survives power loss, at the
	// cost of a disk flush per mutation. When false, appends still
	// reach the kernel before returning (surviving kill -9); callers
	// bound power-loss exposure with periodic Sync calls.
	SyncEveryAppend bool

	// RetainSegments keeps that many rotated segments on disk after a
	// compaction instead of deleting everything the snapshot covers.
	// Retained segments let a replication cursor read history back past
	// the newest snapshot, so a briefly-lagging follower catches up by
	// log shipping instead of a full snapshot bootstrap. Zero preserves
	// the pre-replication behavior: covered segments are removed.
	RetainSegments int
}

// Stats is a snapshot of a Store's counters for observability surfaces.
type Stats struct {
	// Seq is the total number of events in history: the loaded
	// snapshot's base plus every replayed and appended record.
	Seq uint64 `json:"seq"`
	// SnapshotSeq is the sequence number of the newest snapshot.
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// Replayed counts records replayed when the store opened.
	Replayed uint64 `json:"replayed"`
	// Appended counts records appended by this process.
	Appended uint64 `json:"appended"`
	// TornTail reports whether Start truncated a torn tail.
	TornTail bool `json:"torn_tail"`
	// Compactions counts snapshots written by this process.
	Compactions uint64 `json:"compactions"`
}

// Store owns one journal directory: the newest snapshot, the log
// segments that follow it, and the active segment appends go to.
//
// Lifecycle: Open scans the directory and picks the newest snapshot
// file that reads back validly; the caller restores its state from
// Snapshot, which reads that file again, then calls Start with a replay
// function to apply the logged tail; only then may Append, Sync and
// Compact be used. A snapshot is kept only in its file: the store holds
// its path and sequence number, never its bytes. All methods are safe
// for concurrent use after Start.
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File // active segment, nil until Start
	started bool
	closed  bool
	seq     uint64 // events in history (snapshot base + replayed + appended)
	frame   []byte // the last record writeRecord framed, reused by the next

	snapPath string // the newest valid snapshot file, "" when there is none
	snapSeq  uint64

	replayed    uint64
	appended    uint64
	torn        bool
	compactions uint64

	// failAppend, when non-nil, is returned (classified) by every
	// append in place of the real write — the disk-full test hook.
	failAppend error

	// segments pending replay, discovered by Open, consumed by Start.
	pending []segmentFile

	// disk lists every segment currently on disk, sorted ascending by
	// start; the active segment is last. Cursors resolve reads and
	// segment hops against it, so it is the single source of truth for
	// what history remains readable.
	disk []segmentFile
}

type segmentFile struct {
	path  string
	start uint64
}

const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

func segName(seq uint64) string  { return fmt.Sprintf("%s%016x%s", segPrefix, seq, segSuffix) }
func snapName(seq uint64) string { return fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix) }

// parseSeq extracts the sequence number from a journal file name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	seq, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// Open scans dir (created if absent), picks the newest snapshot file
// that reads back as one valid record, and records which log segments
// must replay. It keeps the snapshot's path and sequence number, not
// its bytes. The returned store is not yet appendable — restore state
// from Snapshot, then call Start.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	s := &Store{dir: dir, opts: opts}

	var snaps []segmentFile
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// Leftover from a compaction cut short before its atomic
			// rename; never valid state.
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		if seq, ok := parseSeq(name, snapPrefix, snapSuffix); ok {
			snaps = append(snaps, segmentFile{path: filepath.Join(dir, name), start: seq})
		}
		if seq, ok := parseSeq(name, segPrefix, segSuffix); ok {
			s.pending = append(s.pending, segmentFile{path: filepath.Join(dir, name), start: seq})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].start > snaps[j].start })
	sort.Slice(s.pending, func(i, j int) bool { return s.pending[i].start < s.pending[j].start })

	// Newest snapshot that reads back validly wins; an unreadable one
	// (which the atomic rename should make impossible) falls back to the
	// previous, whose covering segments are still on disk until cleanup.
	for _, sn := range snaps {
		f, err := os.Open(sn.path)
		if err != nil {
			continue
		}
		_, err = readSnapshot(f)
		_ = f.Close()
		if err != nil {
			continue
		}
		s.snapPath, s.snapSeq = sn.path, sn.start
		break
	}
	s.seq = s.snapSeq
	return s, nil
}

// readSnapshot reads the snapshot file f from its start: exactly one
// valid record and nothing after it. Anything else is an error wrapping
// ErrCorrupt.
func readSnapshot(f *os.File) ([]byte, error) {
	payload, err := ReadFrame(f)
	if err == nil {
		var b [1]byte
		if _, err = f.Read(b[:]); err == io.EOF {
			return payload, nil
		}
		if err == nil {
			err = errors.New("bytes after its record")
		}
	}
	return nil, fmt.Errorf("%w: snapshot %s: %v", ErrCorrupt, filepath.Base(f.Name()), err)
}

// Start replays every logged event after the snapshot through fn (in
// append order), truncates a torn tail in place, and opens the journal
// for appending. Segments that the snapshot already covers are removed.
// An error from fn aborts the whole start — a daemon must not serve a
// fleet it could not reconstruct.
func (s *Store) Start(fn func(payload []byte) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.closed {
		return fmt.Errorf("%w: Start on a started or closed store", ErrClosed)
	}

	expected := s.snapSeq
	var covered, replayedSegs []segmentFile
	for i, seg := range s.pending {
		if seg.start < s.snapSeq {
			// Fully covered by the snapshot. RetainSegments keeps the
			// newest of these for replication cursors; the rest are
			// crash artifacts of a compaction cut short before cleanup.
			covered = append(covered, seg)
			continue
		}
		if seg.start != expected {
			return fmt.Errorf("%w: missing segment: have %s, expected one starting at %d",
				ErrCorrupt, filepath.Base(seg.path), expected)
		}
		n := uint64(0)
		validEnd, torn, err := scanSegment(seg.path, func(p []byte) error {
			n++
			return fn(p)
		})
		if err != nil {
			return fmt.Errorf("journal: replaying %s: %w", filepath.Base(seg.path), err)
		}
		if torn {
			if i != len(s.pending)-1 {
				// A torn record mid-history with later segments present
				// is corruption, not a crash artifact: later events
				// cannot be trusted without the ones before them.
				return fmt.Errorf("journal: %s: %w mid-history", filepath.Base(seg.path), ErrTornTail)
			}
			if err := os.Truncate(seg.path, validEnd); err != nil {
				return fmt.Errorf("journal: truncating torn tail of %s: %w", filepath.Base(seg.path), err)
			}
			s.torn = true
		}
		expected += n
		s.replayed += n
		replayedSegs = append(replayedSegs, seg)
	}
	keep := s.opts.RetainSegments
	if keep > len(covered) {
		keep = len(covered)
	}
	for _, seg := range covered[:len(covered)-keep] {
		_ = os.Remove(seg.path)
	}
	s.disk = append(s.disk[:0], covered[len(covered)-keep:]...)
	s.disk = append(s.disk, replayedSegs...)
	s.seq = expected
	s.pending = nil
	// The newest replayed segment ends exactly at s.seq after replay and
	// truncation, so appending continues it; with none, a fresh segment
	// starts at the snapshot.
	start := s.seq
	if n := len(replayedSegs); n > 0 {
		start = replayedSegs[n-1].start
	}
	if err := s.openSegment(start); err != nil {
		return fmt.Errorf("journal: start: %w", err)
	}
	s.started = true
	return nil
}

// openSegment makes the segment starting at start the active one,
// open for appending. It continues the newest on-disk segment when that
// one starts there, and otherwise creates the file and lists it last in
// disk. Callers hold s.mu.
func (s *Store) openSegment(start uint64) error {
	seg := segmentFile{path: filepath.Join(s.dir, segName(start)), start: start}
	n := len(s.disk)
	reuse := n > 0 && s.disk[n-1].start == start
	if reuse {
		seg = s.disk[n-1]
	}
	f, err := os.OpenFile(seg.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("opening segment: %w", err)
	}
	s.f = f
	if !reuse {
		s.disk = append(s.disk, seg)
	}
	return nil
}

// Append logs one event payload. The record reaches the kernel before
// Append returns (an acknowledged event survives process death); with
// Options.SyncEveryAppend it also reaches the disk. It returns the
// event's sequence number, 1-based over all of history.
func (s *Store) Append(payload []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started || s.closed {
		return 0, fmt.Errorf("%w: Append before Start or after Close", ErrClosed)
	}
	if err := s.writeRecord(payload); err != nil {
		return 0, err
	}
	if s.opts.SyncEveryAppend {
		if err := s.f.Sync(); err != nil {
			return 0, classifyWriteErr(err)
		}
	}
	s.seq++
	s.appended++
	return s.seq, nil
}

// writeRecord frames and writes payload to the active segment, flushed
// to the kernel. Callers hold s.mu.
func (s *Store) writeRecord(payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("journal: payload %d bytes exceeds limit %d", len(payload), MaxPayload)
	}
	if s.failAppend != nil {
		return classifyWriteErr(s.failAppend)
	}
	s.frame = AppendFrame(s.frame[:0], payload)
	if _, err := s.f.Write(s.frame); err != nil {
		return classifyWriteErr(err)
	}
	return nil
}

// classifyWriteErr maps an append/sync failure to the taxonomy: out of
// space (ENOSPC, or the short write a full device produces) becomes
// ErrDiskFull so the daemon can degrade instead of crash; anything else
// stays an opaque wrapped I/O error.
func classifyWriteErr(err error) error {
	if errors.Is(err, syscall.ENOSPC) || errors.Is(err, io.ErrShortWrite) {
		return fmt.Errorf("%w: %v", ErrDiskFull, err)
	}
	return fmt.Errorf("journal: append: %w", err)
}

// FailAppends injects err into every subsequent append (nil restores
// real writes) — the regression hook for disk-full behavior, the
// moral twin of Abandon for kill -9.
func (s *Store) FailAppends(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failAppend = err
}

// Sync flushes the active segment to disk — the periodic fdatasync of
// the "interval" fsync policy. The flush runs outside the append mutex:
// a multi-megabyte fdatasync must not stall the hot append path behind
// it, and flushing concurrently with new appends is sound — the tick
// covers everything appended before it, newer records belong to the
// next tick. A concurrent Compact may close the segment mid-sync;
// os.File serializes that internally, and the rotation's own sync
// already covered the file, so ErrClosed is benign.
func (s *Store) Sync() error {
	s.mu.Lock()
	if !s.started || s.closed {
		s.mu.Unlock()
		return nil
	}
	f := s.f
	s.mu.Unlock()
	if err := f.Sync(); err != nil {
		if errors.Is(err, os.ErrClosed) {
			return nil
		}
		return fmt.Errorf("journal: sync: %w", err)
	}
	return nil
}

// Compact records snapshot as the complete state at the current
// sequence number and makes it the new replay base: the active segment
// is rotated first, then the snapshot is written to a temp file,
// fsynced and atomically renamed, and finally older snapshots and
// segments are removed. A crash anywhere in the sequence reopens to a
// consistent prefix.
func (s *Store) Compact(snapshot []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started || s.closed {
		return fmt.Errorf("%w: Compact before Start or after Close", ErrClosed)
	}
	seq := s.seq

	// 1. Rotate: the old segment is complete at seq, appends go to a
	// fresh segment starting there (the same one, when nothing was
	// appended since it started).
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("journal: compact: syncing old segment: %w", err)
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("journal: compact: closing old segment: %w", err)
	}
	if err := s.openSegment(seq); err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}

	// 2. Snapshot: temp write, fsync, atomic rename.
	path, err := s.installSnapshot(snapshot, seq)
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}

	// 3. Cleanup: anything strictly before the new snapshot is covered
	// by it, but RetainSegments rotated segments stay on disk so
	// replication cursors can still read recent history. Best-effort —
	// leftovers are skipped and removed next Open.
	if drop := len(s.disk) - 1 - s.opts.RetainSegments; drop > 0 {
		for _, seg := range s.disk[:drop] {
			_ = os.Remove(seg.path)
		}
		s.disk = append(s.disk[:0:0], s.disk[drop:]...)
	}
	if s.snapPath != "" && s.snapPath != path {
		_ = os.Remove(s.snapPath)
	}
	s.snapPath, s.snapSeq = path, seq
	s.compactions++
	return nil
}

// installSnapshot makes payload the snapshot file at seq: one framed
// record installed with InstallFile. The frame header and the payload
// go out as two writes, so a fleet-sized snapshot is never copied into
// a framed buffer; unlike for a segment append that is safe here,
// because the rename, not a single write(2), is what makes the file
// appear whole. It returns the file's path. Callers hold s.mu.
func (s *Store) installSnapshot(payload []byte, seq uint64) (string, error) {
	var frame [frameSize]byte
	frameHeaderInto(frame[:], payload)
	path := filepath.Join(s.dir, snapName(seq))
	if err := InstallFile(path, frame[:], payload); err != nil {
		return "", fmt.Errorf("writing snapshot: %w", err)
	}
	return path, nil
}

// InstallFile atomically makes the concatenation of parts the file at
// path: the parts are written in turn to path+".tmp", which is fsynced,
// closed and renamed over path, and then the directory is synced so the
// rename is durable (best-effort: some filesystems refuse directory
// fsync). A crash leaves the old file or the new one, never a prefix,
// and at most a stale temp file beside it.
func InstallFile(path string, parts ...[]byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	for _, p := range parts {
		if _, err = f.Write(p); err != nil {
			break
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// Close syncs and closes the active segment. It does not compact —
// callers wanting a fast next boot snapshot first.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.f == nil {
		return nil
	}
	serr := s.f.Sync()
	cerr := s.f.Close()
	if serr != nil {
		return fmt.Errorf("journal: close: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("journal: close: %w", cerr)
	}
	return nil
}

// Abandon drops the store without syncing — the crash-test hook that
// models kill -9: buffered user-space state is discarded, anything
// already written to the kernel survives for the next Open.
func (s *Store) Abandon() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.f != nil {
		_ = s.f.Close()
	}
}

// Seq returns the current sequence number: events in history so far.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Seq:         s.seq,
		SnapshotSeq: s.snapSeq,
		Replayed:    s.replayed,
		Appended:    s.appended,
		TornTail:    s.torn,
		Compactions: s.compactions,
	}
}

// Snapshot reads back the newest snapshot and returns its payload and
// the sequence number it covers: the one Open picked until Compact or
// Reset installs a newer one, and nil, 0, nil when there is none. The
// file is opened under the store mutex, so no Compact can remove it
// first (an open descriptor keeps an unlinked file readable), and read
// after releasing it, so no append waits on the read. A file that no
// longer reads back as exactly one valid record is an error wrapping
// ErrCorrupt.
func (s *Store) Snapshot() (payload []byte, seq uint64, err error) {
	s.mu.Lock()
	if s.snapPath == "" {
		s.mu.Unlock()
		return nil, 0, nil
	}
	seq = s.snapSeq
	f, err := os.Open(s.snapPath)
	s.mu.Unlock()
	if err != nil {
		return nil, 0, fmt.Errorf("journal: snapshot: %w", err)
	}
	defer f.Close()
	if payload, err = readSnapshot(f); err != nil {
		return nil, 0, err
	}
	return payload, seq, nil
}

// Reset discards the store's entire on-disk history and re-roots it at
// seq with the given snapshot — the follower's snapshot-bootstrap
// install, when its local log is not a prefix of the new primary's.
// A crash mid-reset can leave an empty or stale directory; either way
// the follower's next connect detects the mismatch and resets again,
// so the window is self-healing rather than corrupting.
func (s *Store) Reset(snapshot []byte, seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started || s.closed {
		return fmt.Errorf("%w: Reset before Start or after Close", ErrClosed)
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("journal: reset: %w", err)
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("journal: reset: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		_, isSeg := parseSeq(name, segPrefix, segSuffix)
		_, isSnap := parseSeq(name, snapPrefix, snapSuffix)
		if isSeg || isSnap || strings.HasSuffix(name, ".tmp") {
			_ = os.Remove(filepath.Join(s.dir, name))
		}
	}
	path, err := s.installSnapshot(snapshot, seq)
	if err != nil {
		return fmt.Errorf("journal: reset: %w", err)
	}
	s.disk = nil
	if err := s.openSegment(seq); err != nil {
		return fmt.Errorf("journal: reset: %w", err)
	}
	s.seq, s.snapSeq, s.snapPath = seq, seq, path
	s.compactions++
	return nil
}

// segmentContaining returns the on-disk segment holding event seq+1:
// the one with the greatest start <= seq.
func (s *Store) segmentContaining(seq uint64) (path string, start uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.disk) - 1; i >= 0; i-- {
		if s.disk[i].start <= seq {
			return s.disk[i].path, s.disk[i].start, true
		}
	}
	return "", 0, false
}

// segmentAt returns the on-disk segment starting exactly at seq, the
// hop test a cursor uses to tell a finished segment from a live tail.
func (s *Store) segmentAt(seq uint64) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.disk) - 1; i >= 0; i-- {
		if s.disk[i].start == seq {
			return s.disk[i].path, true
		}
	}
	return "", false
}

package journal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestCursorTailsLiveAppends reads events back as they are appended,
// across a compaction-driven rotation, verifying payloads and sequence
// numbers — the primary-side catch-up path of journal shipping.
func TestCursorTailsLiveAppends(t *testing.T) {
	st, _ := openStarted(t, t.TempDir(), Options{RetainSegments: 4})
	defer st.Close()

	cur, err := st.OpenCursor(0)
	if err != nil {
		t.Fatalf("OpenCursor: %v", err)
	}
	defer cur.Close()

	if _, _, err := cur.Next(); !errors.Is(err, ErrNotReady) {
		t.Fatalf("Next on empty journal: err = %v, want ErrNotReady", err)
	}

	var want [][]byte
	for i := 0; i < 50; i++ {
		p := []byte(fmt.Sprintf("event-%d", i))
		want = append(want, p)
		if _, err := st.Append(p); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if i == 25 {
			// Rotate mid-stream; the cursor must hop segments.
			if err := st.Compact([]byte("snap-25")); err != nil {
				t.Fatalf("Compact: %v", err)
			}
		}
	}
	for i, w := range want {
		p, seq, err := cur.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("Next %d: seq = %d, want %d", i, seq, i+1)
		}
		if !bytes.Equal(p, w) {
			t.Fatalf("Next %d: payload %q, want %q", i, p, w)
		}
	}
	if _, _, err := cur.Next(); !errors.Is(err, ErrNotReady) {
		t.Fatalf("Next past tail: err = %v, want ErrNotReady", err)
	}
	if cur.Seq() != st.Seq() {
		t.Fatalf("cursor caught up at %d, store at %d", cur.Seq(), st.Seq())
	}
}

// TestCursorMidSegmentStart opens a cursor at a position inside a
// segment and checks the header-hop skip lands on the right event.
func TestCursorMidSegmentStart(t *testing.T) {
	st, _ := openStarted(t, t.TempDir(), Options{})
	defer st.Close()
	for i := 0; i < 20; i++ {
		if _, err := st.Append([]byte(fmt.Sprintf("e%02d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	cur, err := st.OpenCursor(13)
	if err != nil {
		t.Fatalf("OpenCursor(13): %v", err)
	}
	defer cur.Close()
	p, seq, err := cur.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if seq != 14 || string(p) != "e13" {
		t.Fatalf("Next = (%q, %d), want (e13, 14)", p, seq)
	}
}

// TestRetentionBoundsCursorAndSurvivesReboot verifies that
// RetainSegments keeps rotated segments readable (and prunes beyond
// the cap), that a cursor opens from the prune point and not before
// it, and that retention holds across a store reboot.
func TestRetentionBoundsCursorAndSurvivesReboot(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStarted(t, dir, Options{RetainSegments: 2})
	seqAt := make(map[int]uint64) // compaction round -> seq at rotation
	for round := 0; round < 5; round++ {
		for i := 0; i < 10; i++ {
			if _, err := st.Append([]byte(fmt.Sprintf("r%d-%d", round, i))); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		if err := st.Compact([]byte(fmt.Sprintf("snap-%d", round))); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		seqAt[round] = st.Seq()
	}
	// Five rotations, keep 2: history before seq 30 is pruned.
	if _, err := st.OpenCursor(seqAt[2] - 1); !errors.Is(err, ErrCompacted) {
		t.Fatalf("cursor before retention: err = %v, want ErrCompacted", err)
	}
	if _, err := st.OpenCursor(st.Seq() + 1); !errors.Is(err, ErrCompacted) {
		t.Fatalf("cursor beyond history: err = %v, want ErrCompacted", err)
	}
	cur, err := st.OpenCursor(seqAt[2])
	if err != nil {
		t.Fatalf("OpenCursor(oldest): %v", err)
	}
	n := 0
	for {
		if _, _, err := cur.Next(); err != nil {
			if !errors.Is(err, ErrNotReady) {
				t.Fatalf("Next: %v", err)
			}
			break
		}
		n++
	}
	cur.Close()
	if n != 20 {
		t.Fatalf("read %d retained events, want 20", n)
	}
	st.Close()

	// Reboot: the retained segments must still be there and readable.
	st2, replayed := openStarted(t, dir, Options{RetainSegments: 2})
	defer st2.Close()
	if len(replayed) != 0 {
		t.Fatalf("replayed %d records, want 0 (snapshot covers all)", len(replayed))
	}
	if _, err := st2.OpenCursor(seqAt[2] - 1); !errors.Is(err, ErrCompacted) {
		t.Fatalf("cursor before retention after reboot: err = %v, want ErrCompacted", err)
	}
	cur2, err := st2.OpenCursor(seqAt[2])
	if err != nil {
		t.Fatalf("OpenCursor after reboot: %v", err)
	}
	defer cur2.Close()
	p, seq, err := cur2.Next()
	if err != nil {
		t.Fatalf("Next after reboot: %v", err)
	}
	if seq != seqAt[2]+1 || string(p) != "r3-0" {
		t.Fatalf("Next after reboot = (%q, %d), want (r3-0, %d)", p, seq, seqAt[2]+1)
	}
}

// TestResetReRootsHistory installs a foreign snapshot at an arbitrary
// sequence number and checks the store continues from there, durably.
func TestResetReRootsHistory(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStarted(t, dir, Options{RetainSegments: 2})
	for i := 0; i < 30; i++ {
		if _, err := st.Append([]byte("local")); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := st.Reset([]byte("primary-state"), 1000); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if st.Seq() != 1000 {
		t.Fatalf("Seq after Reset = %d, want 1000", st.Seq())
	}
	if _, err := st.OpenCursor(999); !errors.Is(err, ErrCompacted) {
		t.Fatalf("cursor before the Reset point: err = %v, want ErrCompacted", err)
	}
	if cur, err := st.OpenCursor(1000); err != nil {
		t.Fatalf("OpenCursor at the Reset point: %v", err)
	} else {
		cur.Close()
	}
	seq, err := st.Append([]byte("replicated"))
	if err != nil {
		t.Fatalf("Append after Reset: %v", err)
	}
	if seq != 1001 {
		t.Fatalf("Append after Reset: seq = %d, want 1001", seq)
	}
	st.Close()

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after Reset: %v", err)
	}
	snap, snapSeq, err := st2.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot after Reset: %v", err)
	}
	if string(snap) != "primary-state" || snapSeq != 1000 {
		t.Fatalf("Snapshot after Reset = (%q, %d), want (primary-state, 1000)", snap, snapSeq)
	}
	var replayed [][]byte
	if err := st2.Start(func(p []byte) error {
		replayed = append(replayed, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatalf("Start after Reset: %v", err)
	}
	defer st2.Close()
	if len(replayed) != 1 || string(replayed[0]) != "replicated" {
		t.Fatalf("replayed %q, want [replicated]", replayed)
	}
	if st2.Seq() != 1001 {
		t.Fatalf("Seq after reboot = %d, want 1001", st2.Seq())
	}
}

// TestDiskFullClassification checks that ENOSPC and short writes
// surface as ErrDiskFull while other failures stay opaque.
func TestDiskFullClassification(t *testing.T) {
	st, _ := openStarted(t, t.TempDir(), Options{})
	defer st.Close()
	if _, err := st.Append([]byte("ok")); err != nil {
		t.Fatalf("Append: %v", err)
	}

	st.FailAppends(syscall.ENOSPC)
	if _, err := st.Append([]byte("x")); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("ENOSPC append: err = %v, want ErrDiskFull", err)
	}
	st.FailAppends(io.ErrShortWrite)
	if _, err := st.Append([]byte("x")); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("short-write append: err = %v, want ErrDiskFull", err)
	}
	st.FailAppends(errors.New("cable on fire"))
	if _, err := st.Append([]byte("x")); errors.Is(err, ErrDiskFull) {
		t.Fatalf("unrelated failure misclassified as ErrDiskFull")
	}

	// Failed appends consume no sequence numbers; recovery resumes.
	st.FailAppends(nil)
	seq, err := st.Append([]byte("ok2"))
	if err != nil {
		t.Fatalf("Append after recovery: %v", err)
	}
	if seq != 2 {
		t.Fatalf("Append after recovery: seq = %d, want 2", seq)
	}
}

// TestFrameRoundTrip pins the exported stream framing to the segment
// framing: AppendFrame bytes read back via ReadFrame, and a torn
// stream surfaces ErrTornTail.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(AppendFrame(nil, []byte("hello")))
	buf.Write(AppendFrame(nil, nil))
	full := AppendFrame(nil, []byte("torn away"))
	buf.Write(full[:len(full)-3])

	r := bufio.NewReader(&buf)
	p, err := ReadFrame(r)
	if err != nil || string(p) != "hello" {
		t.Fatalf("ReadFrame 1 = (%q, %v)", p, err)
	}
	p, err = ReadFrame(r)
	if err != nil || len(p) != 0 {
		t.Fatalf("ReadFrame 2 = (%q, %v)", p, err)
	}
	if _, err := ReadFrame(r); !errors.Is(err, ErrTornTail) {
		t.Fatalf("ReadFrame torn: err = %v, want ErrTornTail", err)
	}
}

// TestFrameReadersAgree: boot replay's ReadFrame over a bufio.Reader and
// a Cursor over a segment file accept and refuse the same bytes — the
// cursor reads through ReadFrame, so a frame-format change has one
// reader to keep right.
func TestFrameReadersAgree(t *testing.T) {
	valid := AppendFrame(nil, []byte("event"))
	overLen := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(overLen[0:4], MaxPayload+1)
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0xff
	cases := []struct {
		name  string
		bytes []byte
		ok    bool
	}{
		{"valid frame", valid, true},
		{"short header", valid[:frameSize-3], false},
		{"length over MaxPayload", overLen, false},
		{"short payload", valid[:len(valid)-2], false},
		{"bad CRC", badCRC, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := ReadFrame(bufio.NewReader(bytes.NewReader(tc.bytes)))
			if (err == nil) != tc.ok || (!tc.ok && !errors.Is(err, ErrTornTail)) {
				t.Fatalf("ReadFrame = (%q, %v), want ok=%v", p, err, tc.ok)
			}

			dir := t.TempDir()
			st, _ := openStarted(t, dir, Options{})
			defer st.Close()
			f, err := os.OpenFile(filepath.Join(dir, segName(0)), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tc.bytes); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			cur, err := st.OpenCursor(0)
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			cp, _, err := cur.Next()
			switch {
			case tc.ok && (err != nil || !bytes.Equal(cp, p)):
				t.Fatalf("Cursor.Next = (%q, %v), ReadFrame read %q", cp, err, p)
			case !tc.ok && !errors.Is(err, ErrNotReady):
				t.Fatalf("Cursor.Next = (%q, %v), want ErrNotReady", cp, err)
			}
		})
	}
}

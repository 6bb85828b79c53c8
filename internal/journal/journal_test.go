package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// openStarted opens dir and replays into a slice, failing the test on
// any error — the common happy-path boot.
func openStarted(t *testing.T, dir string, opts Options) (*Store, [][]byte) {
	t.Helper()
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var replayed [][]byte
	if err := st.Start(func(p []byte) error {
		replayed = append(replayed, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return st, replayed
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, replayed := openStarted(t, dir, Options{})
	if len(replayed) != 0 {
		t.Fatalf("fresh dir replayed %d records", len(replayed))
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf(`{"i":%d,"pad":"%s"}`, i, bytes.Repeat([]byte{'x'}, i%7)))
		want = append(want, p)
		seq, err := st.Append(p)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("Append %d: seq = %d, want %d", i, seq, i+1)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2, replayed := openStarted(t, dir, Options{})
	defer st2.Close()
	if len(replayed) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(replayed), len(want))
	}
	for i := range want {
		if !bytes.Equal(replayed[i], want[i]) {
			t.Fatalf("record %d: got %q, want %q", i, replayed[i], want[i])
		}
	}
	if got := st2.Seq(); got != uint64(len(want)) {
		t.Errorf("Seq = %d, want %d", got, len(want))
	}
}

func TestAbandonSurvivesLikeKillNine(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStarted(t, dir, Options{})
	for i := 0; i < 10; i++ {
		if _, err := st.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	st.Abandon() // no sync, no close ceremony

	_, replayed := openStarted(t, dir, Options{})
	if len(replayed) != 10 {
		t.Fatalf("after abandon: replayed %d records, want 10 — appends must reach the kernel before acking", len(replayed))
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStarted(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if _, err := st.Append([]byte{'a', byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Compact([]byte("state@5")); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := st.Append([]byte{'b', byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, seq, err := st2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) != "state@5" || seq != 5 {
		t.Fatalf("Snapshot = %q@%d, want state@5@5", snap, seq)
	}
	var replayed [][]byte
	if err := st2.Start(func(p []byte) error {
		replayed = append(replayed, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if len(replayed) != 3 {
		t.Fatalf("replayed %d post-snapshot records, want 3", len(replayed))
	}
	if st2.Seq() != 8 {
		t.Errorf("Seq = %d, want 8", st2.Seq())
	}
	// Old files are gone: exactly one snapshot, one live segment.
	stats := st2.Stats()
	if stats.SnapshotSeq != 5 || stats.Replayed != 3 {
		t.Errorf("stats = %+v, want snapshot_seq 5 replayed 3", stats)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	snaps, _ := filepath.Glob(filepath.Join(dir, snapPrefix+"*"))
	if len(segs) != 1 || len(snaps) != 1 {
		t.Errorf("compaction left %d segments, %d snapshots; want 1 and 1", len(segs), len(snaps))
	}
}

// wantSnapshot checks that st.Snapshot reads back payload at seq.
func wantSnapshot(t *testing.T, st *Store, payload string, seq uint64) {
	t.Helper()
	got, gotSeq, err := st.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if string(got) != payload || gotSeq != seq {
		t.Fatalf("Snapshot = %q@%d, want %q@%d", got, gotSeq, payload, seq)
	}
}

// TestSnapshotReadsBackInstalled: Snapshot reads back what Compact and
// Reset installed, and what a reopen found, from the file alone; a
// directory without a snapshot answers nil, 0, nil.
func TestSnapshotReadsBackInstalled(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, seq, err := st.Snapshot(); got != nil || seq != 0 || err != nil {
		t.Fatalf("fresh directory: Snapshot = %q, %d, %v; want nil, 0, nil", got, seq, err)
	}
	if err := st.Start(func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append([]byte("e1")); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact([]byte("state@1")); err != nil {
		t.Fatal(err)
	}
	wantSnapshot(t, st, "state@1", 1)
	if err := st.Reset([]byte("primary@40"), 40); err != nil {
		t.Fatal(err)
	}
	wantSnapshot(t, st, "primary@40", 40)
	if _, err := st.Append([]byte("e41")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantSnapshot(t, st2, "primary@40", 40)
}

// TestSnapshotCorruptAfterOpen: the store keeps no copy of the snapshot,
// so a file that stops reading back as exactly one valid record after
// Open makes Snapshot fail with ErrCorrupt instead of serving stale
// bytes.
func TestSnapshotCorruptAfterOpen(t *testing.T) {
	for name, damage := range map[string]func(raw []byte) []byte{
		"garbage":      func(raw []byte) []byte { return bytes.Repeat([]byte{0xa5}, len(raw)) },
		"truncated":    func(raw []byte) []byte { return raw[:len(raw)-1] },
		"empty":        func([]byte) []byte { return nil },
		"second frame": func(raw []byte) []byte { return AppendFrame(raw, []byte("more")) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, _ := openStarted(t, dir, Options{})
			if _, err := st.Append([]byte("e1")); err != nil {
				t.Fatal(err)
			}
			if err := st.Compact([]byte("state@1")); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, snapName(1))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, damage(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, seq, err := st2.Snapshot(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Snapshot of a damaged file = %q@%d, %v; want ErrCorrupt", got, seq, err)
			}
		})
	}
}

// TestSnapshotBesideCompact: Snapshot runs while Compact keeps
// installing newer snapshots and removing older ones. The file is
// opened under the store mutex, so no read fails, and every payload
// read back is one that was installed, at the seq it was installed at.
func TestSnapshotBesideCompact(t *testing.T) {
	st, _ := openStarted(t, t.TempDir(), Options{})
	defer st.Close()
	payload := func(seq uint64) []byte { return bytes.Repeat([]byte(fmt.Sprintf("state@%d|", seq)), 500) }
	if err := st.Compact(payload(0)); err != nil {
		t.Fatal(err)
	}

	const compactions = 200
	done := make(chan struct{})
	defer func() { <-done }() // before Close, on every path
	go func() {
		defer close(done)
		for range compactions {
			seq, err := st.Append([]byte("e"))
			if err == nil {
				err = st.Compact(payload(seq))
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	reads := 0
	for running := true; running; reads++ {
		select {
		case <-done:
			running = false
		default:
		}
		got, seq, err := st.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot beside Compact: %v", err)
		}
		if !bytes.Equal(got, payload(seq)) {
			t.Fatalf("Snapshot at seq %d read back %q..., not the payload installed there", seq, got[:min(len(got), 24)])
		}
	}
	t.Logf("%d reads beside %d compactions", reads, compactions)
}

// TestSnapshotFileIsOneFrame: a snapshot file, written as a frame
// header and then the payload, holds byte for byte the one framed
// record a segment append of the same payload would write.
func TestSnapshotFileIsOneFrame(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStarted(t, dir, Options{})
	defer st.Close()
	if _, err := st.Append([]byte("e1")); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("state|"), 5000)
	if err := st.Compact(payload); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, snapName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, AppendFrame(nil, payload)) {
		t.Fatalf("snapshot file is %d bytes, not the %d-byte framed record", len(raw), frameSize+len(payload))
	}
}

func TestRepeatedCompactionAndReopen(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStarted(t, dir, Options{})
	total := 0
	for round := 0; round < 4; round++ {
		for i := 0; i < 7; i++ {
			if _, err := st.Append([]byte{byte(round), byte(i)}); err != nil {
				t.Fatal(err)
			}
			total++
		}
		if err := st.Compact([]byte(fmt.Sprintf("state@%d", total))); err != nil {
			t.Fatal(err)
		}
	}
	// Tail after the last compaction.
	for i := 0; i < 2; i++ {
		if _, err := st.Append([]byte{'t', byte(i)}); err != nil {
			t.Fatal(err)
		}
		total++
	}
	st.Abandon()

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, seq, err := st2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) != "state@28" || seq != 28 {
		t.Fatalf("Snapshot = %q@%d, want state@28@28", snap, seq)
	}
	n := 0
	if err := st2.Start(func([]byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if n != 2 || st2.Seq() != uint64(total) {
		t.Errorf("replayed %d, seq %d; want 2 and %d", n, st2.Seq(), total)
	}
}

// TestTornTailTruncates pins the crash contract: a segment ending in a
// half-written record loses exactly that record, and the journal stays
// appendable afterwards.
func TestTornTailTruncates(t *testing.T) {
	for _, cut := range []int{1, 3, 7, 9} { // mid-frame and mid-payload cuts
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			st, _ := openStarted(t, dir, Options{})
			if _, err := st.Append([]byte("keep-me")); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Append([]byte("torn")); err != nil {
				t.Fatal(err)
			}
			st.Abandon()

			seg := onlySegment(t, dir)
			raw, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			firstEnd := frameSize + len("keep-me")
			if err := os.WriteFile(seg, raw[:firstEnd+cut], 0o644); err != nil {
				t.Fatal(err)
			}

			st2, replayed := openStarted(t, dir, Options{})
			if len(replayed) != 1 || string(replayed[0]) != "keep-me" {
				t.Fatalf("replayed %q, want just keep-me", replayed)
			}
			if !st2.Stats().TornTail {
				t.Error("stats do not report the torn tail")
			}
			// The journal keeps working: append, reopen, both records read.
			if _, err := st2.Append([]byte("after")); err != nil {
				t.Fatal(err)
			}
			st2.Close()
			_, replayed = openStarted(t, dir, Options{})
			if len(replayed) != 2 || string(replayed[1]) != "after" {
				t.Fatalf("after truncation+append: replayed %q", replayed)
			}
		})
	}
}

// TestCorruptTailTruncates flips a payload byte of the final record:
// the checksum must catch it and replay must stop before it.
func TestCorruptTailTruncates(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStarted(t, dir, Options{})
	if _, err := st.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append([]byte("evil")); err != nil {
		t.Fatal(err)
	}
	st.Abandon()

	seg := onlySegment(t, dir)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, replayed := openStarted(t, dir, Options{})
	if len(replayed) != 1 || string(replayed[0]) != "good" {
		t.Fatalf("replayed %q, want just the intact record", replayed)
	}
}

func TestSyncEveryAppendPolicy(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStarted(t, dir, Options{SyncEveryAppend: true})
	defer st.Close()
	for i := 0; i < 5; i++ {
		if _, err := st.Append([]byte{byte(i)}); err != nil {
			t.Fatalf("Append under SyncEveryAppend: %v", err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatalf("explicit Sync: %v", err)
	}
}

func TestLifecycleErrors(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append([]byte("x")); err == nil {
		t.Error("Append before Start: want error")
	}
	if err := st.Compact(nil); err == nil {
		t.Error("Compact before Start: want error")
	}
	if err := st.Start(func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(func([]byte) error { return nil }); err == nil {
		t.Error("second Start: want error")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Errorf("double Close: %v, want nil", err)
	}
	if _, err := st.Append([]byte("x")); err == nil {
		t.Error("Append after Close: want error")
	}
}

func TestStartAbortsOnReplayError(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStarted(t, dir, Options{})
	if _, err := st.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("apply failed")
	if err := st2.Start(func([]byte) error { return boom }); err == nil {
		t.Fatal("Start with failing replay: want error")
	}
}

func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly one segment, got %v (%v)", segs, err)
	}
	return segs[0]
}

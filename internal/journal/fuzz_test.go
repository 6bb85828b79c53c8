package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplay feeds arbitrary bytes to a journal segment and requires
// the recovery contract to hold regardless: Open+Start never panic,
// a torn or corrupt tail truncates to a valid prefix, and the journal
// stays appendable — records appended after recovery read back intact
// on the next open.
func FuzzReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("garbage that is not a record"))
	// A valid single record ("hi") followed by a torn frame.
	valid := AppendFrame(nil, []byte("hi"))
	f.Add(valid)
	f.Add(append(append([]byte{}, valid...), 0x00, 0x00))
	f.Add(append(append([]byte{}, valid...), valid[:5]...))
	// Implausible length prefix.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5})

	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(0)), raw, 0o644); err != nil {
			t.Skip()
		}
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open on arbitrary bytes: %v", err)
		}
		var prefix [][]byte
		if err := st.Start(func(p []byte) error {
			prefix = append(prefix, append([]byte(nil), p...))
			return nil
		}); err != nil {
			// Start may only fail for structural reasons it names, never
			// panic; arbitrary bytes in one segment must always recover.
			t.Fatalf("Start on arbitrary bytes: %v", err)
		}
		if _, err := st.Append([]byte("post-recovery")); err != nil {
			t.Fatalf("Append after recovery: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		var again [][]byte
		st2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("re-Open: %v", err)
		}
		if err := st2.Start(func(p []byte) error {
			again = append(again, append([]byte(nil), p...))
			return nil
		}); err != nil {
			t.Fatalf("re-Start: %v", err)
		}
		st2.Close()
		if len(again) != len(prefix)+1 {
			t.Fatalf("reopen replayed %d records, want %d valid prefix + 1 appended", len(again), len(prefix)+1)
		}
		for i := range prefix {
			if !bytes.Equal(again[i], prefix[i]) {
				t.Fatalf("record %d changed across recovery: %q != %q", i, again[i], prefix[i])
			}
		}
		if string(again[len(again)-1]) != "post-recovery" {
			t.Fatalf("appended record read back as %q", again[len(again)-1])
		}
	})
}

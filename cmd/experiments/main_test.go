package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the golden file instead of comparing against it:
//
//	go test ./cmd/experiments -update
//
// A golden diff is a diff in the paper's tables and figures; say why it
// moved in the commit that regenerates it.
var update = flag.Bool("update", false, "rewrite the golden file")

// TestSkipTrainingGolden pins, byte for byte, the 15 reports
// experiments prints with -skip-training: every table and figure that
// needs no trained classifier.
func TestSkipTrainingGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{"-skip-training"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "skip-training.golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("output diverged from %s:\n%s", path, firstDiff(out.Bytes(), want))
	}
}

// firstDiff renders the first differing line of two outputs.
func firstDiff(got, want []byte) string {
	g := bytes.Split(got, []byte("\n"))
	w := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d lines", len(g), len(w))
}

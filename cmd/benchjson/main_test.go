package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func row(ns, bytes, allocs float64) result {
	return result{Iterations: 1, NsPerOp: ns, BytesPerOp: &bytes, AllocsPerOp: &allocs}
}

// TestCompareGatesAllocsOnly: only a row in both documents that
// allocates more per op counts as a regression; slower or larger rows,
// rows missing from the baseline, and a core-count mismatch do not.
func TestCompareGatesAllocsOnly(t *testing.T) {
	base := document{Context: []string{"cpus: 1"}, Benchmarks: map[string]result{
		"BenchmarkA": row(100, 48, 1),
		"BenchmarkB": row(100, 48, 1),
		"BenchmarkC": row(100, 48, 1),
	}}
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	doc := document{Context: []string{"cpus: 1"}, Benchmarks: map[string]result{
		"BenchmarkA": row(900, 480, 1), // slower and larger: warns only
		"BenchmarkB": row(50, 48, 2),   // one more allocation: fails
		"BenchmarkC": row(100, 48, 0),
		"BenchmarkD": row(100, 48, 9), // not in the baseline
	}}
	names := []string{"BenchmarkA", "BenchmarkB", "BenchmarkC", "BenchmarkD"}
	failed, err := compare(doc, names, path)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 1 {
		t.Errorf("compare counted %d regressions, want 1 (BenchmarkB)", failed)
	}

	doc.Context = []string{"cpus: 2"}
	if _, err := compare(doc, names, path); err == nil {
		t.Error("compare accepted documents from different core counts")
	}
}

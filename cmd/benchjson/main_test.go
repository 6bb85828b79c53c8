package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
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

// TestCompareFailsOnMissingRow: a baseline row the run did not produce,
// as after renaming a gated benchmark, fails the gate even when every
// row the run did produce passes; so does one it produced without
// allocs/op.
func TestCompareFailsOnMissingRow(t *testing.T) {
	base := document{Context: []string{"cpus: 1"}, Benchmarks: map[string]result{
		"BenchmarkA":     row(100, 48, 1),
		"BenchmarkB/hot": row(100, 48, 1),
		"BenchmarkC":     row(100, 48, 1),
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
		"BenchmarkA":         row(100, 48, 1),
		"BenchmarkB/renamed": row(100, 48, 1),
	}}
	failed, err := compare(doc, []string{"BenchmarkA", "BenchmarkB/renamed"}, path)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 2 {
		t.Errorf("compare counted %d failures, want 2 (BenchmarkB/hot and BenchmarkC missing)", failed)
	}

	// A row present but without its allocation column, as a parse that
	// missed it leaves it, fails too.
	doc.Benchmarks["BenchmarkB/hot"] = result{Iterations: 1, NsPerOp: 100}
	doc.Benchmarks["BenchmarkC"] = row(100, 48, 1)
	failed, err = compare(doc, []string{"BenchmarkA", "BenchmarkB/hot", "BenchmarkC"}, path)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 1 {
		t.Errorf("compare counted %d failures, want 1 (BenchmarkB/hot without allocs/op)", failed)
	}
}

// TestBenchLineReadsAllocsAfterThroughput: a row with the MB/s column
// b.SetBytes adds still yields its B/op and allocs/op, so the gate
// covers it.
func TestBenchLineReadsAllocsAfterThroughput(t *testing.T) {
	for line, want := range map[string][]string{
		"BenchmarkDecodeStrict/distinct    \t   10000\t    108927 ns/op\t 276.27 MB/s\t   16208 B/op\t     195 allocs/op": {
			"BenchmarkDecodeStrict/distinct", "", "10000", "108927", "16208", "195"},
		"BenchmarkPlanCompile-4  \t 1000000\t       300 ns/op\t     448 B/op\t       5 allocs/op": {
			"BenchmarkPlanCompile", "4", "1000000", "300", "448", "5"},
	} {
		m := benchLine.FindStringSubmatch(line)
		if m == nil || !reflect.DeepEqual(m[1:], want) {
			t.Errorf("%q: matched %q, want %q", line, m, want)
		}
	}
}

package sim

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the golden traces instead of comparing against
// them:
//
//	go test ./sim -run TestGoldenTraces -update
//
// Commit the regenerated files with the change that moved them, and say
// why the trace moved in the commit message — a golden diff is a
// behavior diff.
var update = flag.Bool("update", false, "rewrite golden trace files")

// TestGoldenTraces locks every corpus scenario's trace down
// byte-for-byte. Any change to the solvers, the controller
// accounting, the harvest/consumption models or the trace encoding
// shows up here as a diff against testdata/<scenario>.golden.
//
// The goldens are generated on amd64 (Go's portable math, no fused
// multiply-add); the fixed-point trace encoding leaves ~5·10⁻⁷ of
// headroom before a last-bit arithmetic difference could flip a digit.
func TestGoldenTraces(t *testing.T) {
	for _, sc := range corpusScenarios(t) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res, err := Run(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Trace.Bytes()
			path := filepath.Join("testdata", sc.Name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("trace diverged from %s:\n%s", path, firstDiff(got, want))
			}
		})
	}
}

// TestGoldenTracesPlanBackend guards the plan against the goldens. The
// sim package resolves an unset Scenario.Solver to simplex — not to the
// plan that Solve, SolveBatch and every default session use — so the
// golden traces stay pinned to the paper's Algorithm 1. This test runs
// the plan anyway: every library scenario that does not name a solver
// (cloudy-bursts pins enumerate) is re-run with the compiled parametric
// plan and must reproduce its checked-in golden trace byte for byte.
// Only the header's solver= token may differ, since the trace honestly
// records which solver ran; every record line — budgets, allocations,
// planned energy, batteries, accuracies — must be byte-identical to
// the simplex-generated golden. No golden is regenerated for the plan:
// it is exact enough that the fixed-point trace encoding cannot tell
// it apart from the paper's Algorithm 1.
func TestGoldenTracesPlanBackend(t *testing.T) {
	if *update {
		t.Skip("regenerating")
	}
	covered := 0
	for _, sc := range corpusScenarios(t) {
		if sc.Solver != "" {
			continue // pinned to a specific backend; not affected by the default
		}
		sc := sc
		covered++
		t.Run(sc.Name, func(t *testing.T) {
			sc.Solver = "plan"
			res, err := Run(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Trace.Bytes()
			// Normalize the single header token that names the backend;
			// everything else must match exactly.
			got = bytes.Replace(got, []byte("solver=plan"), []byte("solver=simplex"), 1)
			want, err := os.ReadFile(filepath.Join("testdata", sc.Name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("plan backend diverged from the golden trace:\n%s", firstDiff(got, want))
			}
		})
	}
	if covered == 0 {
		t.Fatal("no corpus scenario runs on the default backend")
	}
}

// firstDiff renders the first differing line of two trace encodings.
func firstDiff(got, want []byte) string {
	g := bytes.Split(got, []byte("\n"))
	w := bytes.Split(want, []byte("\n"))
	n := len(g)
	if len(w) < n {
		n = len(w)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d lines", len(g), len(w))
}

// TestGoldenCoversCorpus fails when a scenario is added to the corpus
// without a checked-in golden, or a stale golden lingers after a rename.
func TestGoldenCoversCorpus(t *testing.T) {
	if *update {
		t.Skip("regenerating")
	}
	want := map[string]bool{}
	for _, sc := range corpusScenarios(t) {
		want[sc.Name+".golden"] = true
	}
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !want[e.Name()] {
			t.Errorf("stale golden %s has no corpus scenario", e.Name())
		}
		delete(want, e.Name())
	}
	for name := range want {
		t.Errorf("scenario %s has no checked-in golden", name)
	}
}

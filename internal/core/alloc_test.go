package core

import (
	"context"
	"testing"
)

// The //reap:hotpath annotations promise these paths allocate nothing in
// steady state; the hotalloc analyzer enforces that statically and these
// pins are the runtime ground truth it cross-validates.

func TestPlanSolveIntoZeroAllocs(t *testing.T) {
	p, err := NewPlan(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var dst Allocation
	if err := p.SolveInto(1.0, &dst); err != nil { // warm dst.Active
		t.Fatal(err)
	}
	budgets := []float64{0.05, 0.4, 1.1, 2.5, 10}
	allocs := testing.AllocsPerRun(200, func() {
		for _, b := range budgets {
			if err := p.SolveInto(b, &dst); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Plan.SolveInto allocated %v times per run, want 0", allocs)
	}
}

// NewPlan allocates the Plan and its envelope and nothing else: the
// candidates sort and reduce to the envelope in one scratch array on
// the stack.
func TestNewPlanTwoAllocs(t *testing.T) {
	cfg := DefaultConfig()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := NewPlan(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Fatalf("NewPlan(DefaultConfig()) allocated %v times per run, want 2", allocs)
	}
}

func TestPlanShadowPriceZeroAllocs(t *testing.T) {
	p, err := NewPlan(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// One budget per regime: dead, a breakpoint, a segment, saturated.
	budgets := []float64{0.05, p.hull[1].budget, 0.7, 5, 100}
	allocs := testing.AllocsPerRun(200, func() {
		for _, b := range budgets {
			if _, err := p.ShadowPrice(b); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Plan.ShadowPrice allocated %v times per run, want 0", allocs)
	}
}

func TestStepIntoOnPlanZeroAllocs(t *testing.T) {
	cfg := DefaultConfig()
	ct := newTestController(t, cfg, 0, 0)
	ctx := context.Background()
	var dst Allocation
	if err := ct.StepInto(ctx, 1.0, &dst); err != nil { // warm dst.Active
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := ct.StepInto(ctx, 1.0, &dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Controller.StepInto on the plan path allocated %v times per run, want 0", allocs)
	}
}

// The simplex hook builds its objective, constraint rows and problem on
// the stack, and lp.Solve keeps its row headers and basis there: a solve
// allocates the tableau's one backing array and the solution, which
// becomes the Allocation's Active slice.
func TestSolveContextTwoAllocs(t *testing.T) {
	cfg := DefaultConfig()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := SolveContext(ctx, cfg, 1.0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("SolveContext at %d design points allocated %v times per run, want at most 2", len(cfg.DPs), allocs)
	}
}

// The enumerating hook keeps its weight vector on the stack: its one
// allocation is the returned Active slice.
func TestSolveEnumerateContextOneAlloc(t *testing.T) {
	cfg := DefaultConfig()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := SolveEnumerateContext(ctx, cfg, 1.0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("SolveEnumerateContext at %d design points allocated %v times per run, want 1", len(cfg.DPs), allocs)
	}
}

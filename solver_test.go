package reap

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
)

// solvers are the three exact optimizers of the paper's LP: the plan
// that Solve answers on, and the iterative pair that WithSolver can
// still put a session on.
var solvers = []struct {
	name  string
	solve core.SolveFunc
}{
	{SolverPlan, Solve},
	{SolverSimplex, core.SolveContext},
	{SolverEnumerate, core.SolveEnumerateContext},
}

// TestWithSolverNames: WithSolver accepts exactly the three solver
// names and refuses every other, the empty name included, with
// ErrUnknownSolver.
func TestWithSolverNames(t *testing.T) {
	for _, s := range solvers {
		if _, err := New(WithSolver(s.name)); err != nil {
			t.Errorf("WithSolver(%q): %v", s.name, err)
		}
	}
	for _, name := range []string{"", "no-such-backend", "Plan", "simplex "} {
		if _, err := NewConfig(WithSolver(name)); !errors.Is(err, ErrUnknownSolver) {
			t.Errorf("WithSolver(%q): err %v, want ErrUnknownSolver", name, err)
		}
	}
}

// TestBackendsAgreeAcrossRegions is the acceptance sweep: Solve and
// the two iterative solvers must produce identical allocations on the
// paper's Table 2 configuration across every Figure 5 operating
// region, including the region boundaries themselves. The plan is held
// to the same allocation-level agreement as the iterative pair — on a
// generic-position design set like Table 2 the LP optimum is unique, so
// the solvers may differ only by floating-point noise.
func TestBackendsAgreeAcrossRegions(t *testing.T) {
	ctx := context.Background()
	cfg, err := NewConfig()
	if err != nil {
		t.Fatal(err)
	}

	budgets := []float64{0, 0.05, 0.1, 0.18} // dead region and the idle floor
	for b := 0.2; b <= 11.0; b += 0.05 {     // regions 1-3 and beyond saturation
		budgets = append(budgets, b)
	}
	budgets = append(budgets, core.RegionBoundaries(cfg)...)

	regions := map[Region]int{}
	for _, budget := range budgets {
		a1, err := core.SolveContext(ctx, cfg, budget)
		if err != nil {
			t.Fatalf("simplex at %v J: %v", budget, err)
		}
		for _, s := range solvers {
			if s.name == SolverSimplex {
				continue
			}
			a2, err := s.solve(ctx, cfg, budget)
			if err != nil {
				t.Fatalf("%s at %v J: %v", s.name, budget, err)
			}
			if math.Abs(a1.Objective(cfg)-a2.Objective(cfg)) > 1e-9 {
				t.Fatalf("objectives disagree at %v J: simplex %v %s %v",
					budget, a1.Objective(cfg), s.name, a2.Objective(cfg))
			}
			for i := range a1.Active {
				if math.Abs(a1.Active[i]-a2.Active[i]) > 1e-6 {
					t.Fatalf("allocations disagree at %v J (%s): simplex %v vs %s %v",
						budget, Classify(cfg, budget), a1, s.name, a2)
				}
			}
			if math.Abs(a1.Off-a2.Off) > 1e-6 || math.Abs(a1.Dead-a2.Dead) > 1e-6 {
				t.Fatalf("off/dead disagree at %v J: simplex %v vs %s %v", budget, a1, s.name, a2)
			}
		}
		regions[Classify(cfg, budget)]++
	}
	for _, r := range []Region{RegionDead, Region1, Region2, Region3} {
		if regions[r] == 0 {
			t.Errorf("sweep never visited %v", r)
		}
	}
}

func TestSolverContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg, err := NewConfig()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range solvers {
		if _, err := s.solve(ctx, cfg, 5.0); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with cancelled context: err %v, want context.Canceled", s.name, err)
		}
	}
}

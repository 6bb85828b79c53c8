package reap

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
)

func TestSolverRegistryBuiltins(t *testing.T) {
	names := Solvers()
	want := map[string]bool{SolverSimplex: false, SolverEnumerate: false, SolverPlan: false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("built-in solver %q missing from registry %v", n, names)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Solvers() not sorted: %v", names)
		}
	}
}

func TestLookupSolverUnknown(t *testing.T) {
	_, err := LookupSolver("no-such-backend")
	if !errors.Is(err, ErrUnknownSolver) {
		t.Fatalf("LookupSolver error %v, want ErrUnknownSolver", err)
	}
}

func TestRegisterSolverValidation(t *testing.T) {
	dummy := SolverFunc(func(ctx context.Context, cfg Config, budget float64) (Allocation, error) {
		return Allocation{}, nil
	})
	if err := RegisterSolver("", dummy); err == nil {
		t.Error("empty name accepted")
	}
	if err := RegisterSolver("nil-backend", nil); err == nil {
		t.Error("nil solver accepted")
	}
	if err := RegisterSolver(SolverSimplex, dummy); err == nil {
		t.Error("duplicate registration accepted")
	}
	// A fresh name registers and becomes visible.
	if err := RegisterSolver("test-dummy", dummy); err != nil {
		t.Fatal(err)
	}
	if _, err := LookupSolver("test-dummy"); err != nil {
		t.Fatal(err)
	}
}

// TestBackendsAgreeAcrossRegions is the acceptance sweep: all three
// registered backends must produce identical allocations on the paper's
// Table 2 configuration across every Figure 5 operating region,
// including the region boundaries themselves. The plan backend is held
// to the same allocation-level agreement as the iterative pair — on a
// generic-position design set like Table 2 the LP optimum is unique, so
// the backends may differ only by floating-point noise.
func TestBackendsAgreeAcrossRegions(t *testing.T) {
	ctx := context.Background()
	cfg, err := NewConfig()
	if err != nil {
		t.Fatal(err)
	}
	simplex, err := LookupSolver(SolverSimplex)
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
		a1, err := simplex.Solve(ctx, cfg, budget)
		if err != nil {
			t.Fatalf("simplex at %v J: %v", budget, err)
		}
		for _, name := range []string{SolverEnumerate, SolverPlan} {
			other, err := LookupSolver(name)
			if err != nil {
				t.Fatal(err)
			}
			a2, err := other.Solve(ctx, cfg, budget)
			if err != nil {
				t.Fatalf("%s at %v J: %v", name, budget, err)
			}
			if math.Abs(a1.Objective(cfg)-a2.Objective(cfg)) > 1e-9 {
				t.Fatalf("objectives disagree at %v J: simplex %v %s %v",
					budget, a1.Objective(cfg), name, a2.Objective(cfg))
			}
			for i := range a1.Active {
				if math.Abs(a1.Active[i]-a2.Active[i]) > 1e-6 {
					t.Fatalf("allocations disagree at %v J (%s): simplex %v vs %s %v",
						budget, Classify(cfg, budget), a1, name, a2)
				}
			}
			if math.Abs(a1.Off-a2.Off) > 1e-6 || math.Abs(a1.Dead-a2.Dead) > 1e-6 {
				t.Fatalf("off/dead disagree at %v J: simplex %v vs %s %v", budget, a1, name, a2)
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

// TestDefaultBackendIsPlan pins the default flip: New, NewFleet and
// SolveBatch run on the compiled plan backend unless told otherwise.
func TestDefaultBackendIsPlan(t *testing.T) {
	if DefaultSolver != SolverPlan {
		t.Fatalf("DefaultSolver = %q, want %q", DefaultSolver, SolverPlan)
	}
}

func TestSolverContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg, err := NewConfig()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{SolverSimplex, SolverEnumerate, SolverPlan} {
		s, err := LookupSolver(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Solve(ctx, cfg, 5.0); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with cancelled context: err %v, want context.Canceled", name, err)
		}
	}
}

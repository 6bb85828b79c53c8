package reap

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/lp"
)

// TestErrorsIsRoundTrips pins the error taxonomy contract: every failure
// mode of the public surface classifies with errors.Is against the
// package sentinels, on the plan and across the reap -> core -> lp
// wrapping chain of the iterative solvers.
func TestErrorsIsRoundTrips(t *testing.T) {
	ctx := context.Background()
	cfg, err := NewConfig()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("budget negative", func(t *testing.T) {
		for _, s := range solvers {
			for _, bad := range []float64{-1, math.NaN()} {
				if _, err := s.solve(ctx, cfg, bad); !errors.Is(err, ErrBudgetNegative) {
					t.Errorf("%s(%v): err %v, want ErrBudgetNegative", s.name, bad, err)
				}
			}
		}
	})

	t.Run("invalid config", func(t *testing.T) {
		for _, s := range solvers {
			bad := cfg
			bad.Period = -1
			if _, err := s.solve(ctx, bad, 5); !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("%s, negative period: err %v, want ErrInvalidConfig", s.name, err)
			}
			bad = cfg
			bad.DPs = nil
			_, err := s.solve(ctx, bad, 5)
			if !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("%s, no DPs: err %v, want ErrInvalidConfig", s.name, err)
			}
			// The finer-grained sentinel stays visible through the wrap.
			if !errors.Is(err, core.ErrNoDesignPoints) {
				t.Errorf("%s, no DPs: err %v should also match core.ErrNoDesignPoints", s.name, err)
			}
		}
	})

	t.Run("constructor errors", func(t *testing.T) {
		if _, err := New(WithPeriod(-1)); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("New: err %v, want ErrInvalidConfig", err)
		}
		if _, err := NewFleet(0); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("NewFleet(0): err %v, want ErrInvalidConfig", err)
		}
		if _, err := New(WithSolver("bogus")); !errors.Is(err, ErrUnknownSolver) {
			t.Errorf("WithSolver: err %v, want ErrUnknownSolver", err)
		}
		// NaN battery state must fail construction on both the options
		// path and the core positional path.
		if _, err := New(WithBattery(math.NaN(), 100)); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("New with NaN battery: err %v, want ErrInvalidConfig", err)
		}
		if _, err := core.NewController(DefaultConfig(), math.NaN(), 100); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("NewController with NaN battery: err %v, want ErrInvalidConfig", err)
		}
	})

	t.Run("infeasible wraps lp sentinel", func(t *testing.T) {
		// The public sentinel chains down to the lp-layer one, so callers
		// holding either classify identically.
		err := error(core.ErrInfeasible)
		if !errors.Is(ErrInfeasible, err) {
			t.Error("reap.ErrInfeasible must alias core.ErrInfeasible")
		}
		if lp.Infeasible.Err() == nil || !errors.Is(lp.Infeasible.Err(), lp.ErrInfeasible) {
			t.Error("lp.Infeasible.Err() must yield lp.ErrInfeasible")
		}
		// Non-infeasible terminal statuses classify publicly too.
		if !errors.Is(ErrSolverFailure, core.ErrSolverFailure) {
			t.Error("reap.ErrSolverFailure must alias core.ErrSolverFailure")
		}
		for _, s := range []lp.Status{lp.Unbounded, lp.IterationLimit} {
			if !errors.Is(s.Err(), s.Err()) || s.Err() == nil {
				t.Errorf("status %v must map to a sentinel", s)
			}
		}
	})

	t.Run("batch errors", func(t *testing.T) {
		results := SolveBatch(ctx, []Request{
			{Budget: 5},
			{Budget: -3},
		})
		if results[0].Err != nil {
			t.Errorf("good request failed: %v", results[0].Err)
		}
		if !errors.Is(results[1].Err, ErrBudgetNegative) {
			t.Errorf("negative budget: err %v, want ErrBudgetNegative", results[1].Err)
		}
	})
}

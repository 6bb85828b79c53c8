package reap

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// Failing test backends, registered once: SolveBatch must surface a
// backend's sentinel to the right per-result slot, so the taxonomy test
// needs backends that fail with each core sentinel on demand.
var registerFailingBackends sync.Once

func sentinelBackend(err error) Solver {
	return SolverFunc(func(context.Context, Config, float64) (Allocation, error) {
		return Allocation{}, fmt.Errorf("test backend: %w", err)
	})
}

func failingBackends(t *testing.T) {
	t.Helper()
	registerFailingBackends.Do(func() {
		if err := RegisterSolver("test-infeasible", sentinelBackend(ErrInfeasible)); err != nil {
			t.Fatal(err)
		}
		if err := RegisterSolver("test-solverfailure", sentinelBackend(ErrSolverFailure)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSolveBatchErrorTaxonomy drives every sentinel of the public error
// taxonomy through SolveBatch and requires each to land in its own
// request's Result, classifiable with errors.Is, without disturbing the
// healthy requests sharing the batch.
func TestSolveBatchErrorTaxonomy(t *testing.T) {
	failingBackends(t)

	badConfig := DefaultConfig()
	badConfig.Period = -1

	cases := []struct {
		name     string
		req      Request
		sentinel error
	}{
		{
			name:     "invalid config",
			req:      Request{Config: badConfig, Budget: 5},
			sentinel: ErrInvalidConfig,
		},
		{
			name:     "negative budget",
			req:      Request{Budget: -5},
			sentinel: ErrBudgetNegative,
		},
		{
			name:     "NaN budget",
			req:      Request{Budget: math.NaN()},
			sentinel: ErrBudgetNegative,
		},
		{
			name:     "unknown solver",
			req:      Request{Budget: 5, Solver: "no-such-backend"},
			sentinel: ErrUnknownSolver,
		},
		{
			name:     "infeasible",
			req:      Request{Budget: 5, Solver: "test-infeasible"},
			sentinel: ErrInfeasible,
		},
		{
			name:     "solver failure",
			req:      Request{Budget: 5, Solver: "test-solverfailure"},
			sentinel: ErrSolverFailure,
		},
	}

	// Interleave a healthy request after every failing one: per-result
	// errors must not leak across slots.
	reqs := make([]Request, 0, 2*len(cases))
	for _, c := range cases {
		reqs = append(reqs, c.req, Request{Budget: 5})
	}
	results := SolveBatch(context.Background(), reqs)
	if len(results) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(results), len(reqs))
	}
	for i, c := range cases {
		got := results[2*i]
		if got.Err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !errors.Is(got.Err, c.sentinel) {
			t.Errorf("%s: error %v does not wrap the sentinel", c.name, got.Err)
		}
		// Each sentinel classification must be exclusive within the
		// taxonomy the caller branches on.
		for _, other := range cases {
			if other.sentinel != c.sentinel && errors.Is(got.Err, other.sentinel) {
				t.Errorf("%s: error also matches %v", c.name, other.sentinel)
			}
		}
		healthy := results[2*i+1]
		if healthy.Err != nil {
			t.Errorf("healthy request after %s failed: %v", c.name, healthy.Err)
		}
		if healthy.Err == nil && healthy.Allocation.Total() == 0 {
			t.Errorf("healthy request after %s returned an empty allocation", c.name)
		}
	}
}

// TestFleetReportAllEdgeCases exercises the feedback path beyond the
// happy loop: length mismatches, NaN and negative consumption, and the
// guarantee that a bad device's report never blocks its siblings'.
func TestFleetReportAllEdgeCases(t *testing.T) {
	newStepped := func(t *testing.T, n int) *Fleet {
		t.Helper()
		fleet, err := NewFleet(n)
		if err != nil {
			t.Fatal(err)
		}
		budgets := make([]float64, n)
		for i := range budgets {
			budgets[i] = 5
		}
		if _, err := fleet.StepAll(context.Background(), budgets); err != nil {
			t.Fatal(err)
		}
		return fleet
	}

	t.Run("length mismatch", func(t *testing.T) {
		fleet := newStepped(t, 3)
		for _, consumed := range [][]float64{nil, {1}, {1, 2, 3, 4}} {
			err := fleet.ReportAll(consumed)
			if !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("ReportAll(%d values) for 3 devices: %v", len(consumed), err)
			}
		}
	})

	t.Run("NaN and negative consumption", func(t *testing.T) {
		fleet := newStepped(t, 4)
		err := fleet.ReportAll([]float64{1, math.NaN(), -2, 1})
		if !errors.Is(err, ErrBudgetNegative) {
			t.Fatalf("bad consumption not classified: %v", err)
		}
		msg := err.Error()
		for _, want := range []string{"device 1", "device 2"} {
			if !strings.Contains(msg, want) {
				t.Errorf("error %q does not name %s", msg, want)
			}
		}
		if strings.Contains(msg, "device 0") || strings.Contains(msg, "device 3") {
			t.Errorf("error %q blames a healthy device", msg)
		}
		// ReportAll reuses the fleet's error scratch: a failed report
		// must not resurface in the next call.
		if err := fleet.ReportAll([]float64{1, 1, 1, 1}); err != nil {
			t.Fatalf("valid reports after failed ones: %v", err)
		}
	})

	t.Run("healthy devices still reported", func(t *testing.T) {
		// Device 0 reports consuming nothing (a large positive carry),
		// device 1 reports NaN. The next step must show device 0's carry
		// arriving in its LP budget and device 1 unaffected by its
		// failed report.
		fleet := newStepped(t, 2)
		if err := fleet.ReportAll([]float64{0, math.NaN()}); err == nil {
			t.Fatal("NaN report succeeded")
		}
		if _, err := fleet.StepAll(context.Background(), []float64{0, 0}); err != nil {
			t.Fatal(err)
		}
		dev0, err := fleet.Device(0)
		if err != nil {
			t.Fatal(err)
		}
		dev1, err := fleet.Device(1)
		if err != nil {
			t.Fatal(err)
		}
		// Device 0 planned ~5 J, consumed 0, so its second budget is the
		// unspent plan; device 1's failed report leaves no carry.
		if got := dev0.LastBudget(); math.Abs(got-5) > 1e-6 {
			t.Fatalf("device 0 second budget %v, want the 5 J carry", got)
		}
		if got := dev1.LastBudget(); got != 0 {
			t.Fatalf("device 1 second budget %v, want 0 (failed report must not carry)", got)
		}
	})

	t.Run("zero consumption is valid", func(t *testing.T) {
		fleet := newStepped(t, 2)
		if err := fleet.ReportAll([]float64{0, 0}); err != nil {
			t.Fatalf("zero consumption rejected: %v", err)
		}
	})
}

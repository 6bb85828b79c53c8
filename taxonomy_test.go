package reap

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestSolveBatchErrorTaxonomy drives every sentinel of the public error
// taxonomy to its caller and requires each to classify with errors.Is,
// exclusively. The sentinels a batch request can carry must land in
// their own request's Result without disturbing the healthy requests
// sharing the batch. The plan never fails with ErrInfeasible or
// ErrSolverFailure, so those come from a session's solve hook, and
// ErrUnknownSolver from construction.
func TestSolveBatchErrorTaxonomy(t *testing.T) {
	badConfig := DefaultConfig()
	badConfig.Period = -1

	batch := []struct {
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
	}

	type outcome struct {
		name          string
		err, sentinel error
	}
	var got []outcome

	// Interleave a healthy request after every failing one: per-result
	// errors must not leak across slots.
	reqs := make([]Request, 0, 2*len(batch))
	for _, c := range batch {
		reqs = append(reqs, c.req, Request{Budget: 5})
	}
	results := SolveBatch(context.Background(), reqs)
	if len(results) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(results), len(reqs))
	}
	for i, c := range batch {
		got = append(got, outcome{c.name, results[2*i].Err, c.sentinel})
		healthy := results[2*i+1]
		if healthy.Err != nil {
			t.Errorf("healthy request after %s failed: %v", c.name, healthy.Err)
		}
		if healthy.Err == nil && healthy.Allocation.Total() == 0 {
			t.Errorf("healthy request after %s returned an empty allocation", c.name)
		}
	}

	for _, sentinel := range []error{ErrInfeasible, ErrSolverFailure} {
		ctl, err := New()
		if err != nil {
			t.Fatal(err)
		}
		ctl.SetSolveFunc(func(context.Context, Config, float64) (Allocation, error) {
			return Allocation{}, fmt.Errorf("test hook: %w", sentinel)
		})
		_, err = ctl.Step(5)
		got = append(got, outcome{sentinel.Error(), err, sentinel})
	}
	_, err := New(WithSolver("no-such-backend"))
	got = append(got, outcome{"unknown solver", err, ErrUnknownSolver})

	for _, o := range got {
		if o.err == nil {
			t.Errorf("%s: no error", o.name)
			continue
		}
		if !errors.Is(o.err, o.sentinel) {
			t.Errorf("%s: error %v does not wrap the sentinel", o.name, o.err)
		}
		// Each sentinel classification must be exclusive within the
		// taxonomy the caller branches on.
		for _, other := range got {
			if other.sentinel != o.sentinel && errors.Is(o.err, other.sentinel) {
				t.Errorf("%s: error also matches %v", o.name, other.sentinel)
			}
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

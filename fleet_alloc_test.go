package reap

import (
	"context"
	"testing"
)

// Steady-state fleet ticks are //reap:hotpath: with the per-tick scratch
// hoisted into the Fleet and a single worker, a warmed tick must not
// allocate — on the uncached plan path and on the cache-hit path alike.

func fleetTickAllocs(t *testing.T, opts ...Option) float64 {
	t.Helper()
	const n = 8
	f, err := NewFleet(n, append([]Option{WithWorkers(1)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	budgets := make([]float64, n)
	for i := range budgets {
		budgets[i] = 1.0
	}
	allocs := make([]Allocation, n)
	// Warm: populate cache entries and grow every Active buffer.
	for i := 0; i < 3; i++ {
		if err := f.stepAllInto(ctx, budgets, allocs); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(100, func() {
		if err := f.stepAllInto(ctx, budgets, allocs); err != nil {
			t.Fatal(err)
		}
	})
}

func TestFleetTickZeroAllocsPlanPath(t *testing.T) {
	if allocs := fleetTickAllocs(t); allocs != 0 {
		t.Fatalf("default plan-path fleet tick allocated %v times per run, want 0", allocs)
	}
}

func TestFleetTickZeroAllocsCacheHitPath(t *testing.T) {
	if allocs := fleetTickAllocs(t, WithSolveCache(DefaultCacheSize, DefaultCacheResolution)); allocs != 0 {
		t.Fatalf("cache-hit fleet tick allocated %v times per run, want 0", allocs)
	}
}

// A Fleet.Run tick also reports consumption. On the plan path that must
// not allocate either. (Reports that differ from the plan move each
// device's carry, and so its budget, which defeats a solve cache.)
func TestFleetStepReportTickZeroAllocs(t *testing.T) {
	const n = 8
	f, err := NewFleet(n, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	budgets := make([]float64, n)
	consumed := make([]float64, n)
	for i := range budgets {
		budgets[i], consumed[i] = 1.0, 0.9
	}
	allocs := make([]Allocation, n)
	tick := func() {
		if err := f.stepAllInto(ctx, budgets, allocs); err != nil {
			t.Fatal(err)
		}
		if err := f.ReportAll(consumed); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		tick()
	}
	if allocs := testing.AllocsPerRun(100, tick); allocs != 0 {
		t.Fatalf("step+report fleet tick allocated %v times per run, want 0", allocs)
	}
}

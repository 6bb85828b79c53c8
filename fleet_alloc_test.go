package reap

import (
	"context"
	"testing"
)

// Steady-state fleet ticks are //reap:hotpath: with the per-tick scratch
// hoisted into the Fleet and a fleet of one pool chunk stepping on the
// caller, a warmed tick must not allocate.

func TestFleetTickZeroAllocsPlanPath(t *testing.T) {
	const n = 8
	f, err := NewFleet(n)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	budgets := make([]float64, n)
	for i := range budgets {
		budgets[i] = 1.0
	}
	allocs := make([]Allocation, n)
	// Warm: grow every Active buffer.
	for i := 0; i < 3; i++ {
		if err := f.stepAllInto(ctx, budgets, allocs); err != nil {
			t.Fatal(err)
		}
	}
	allocsPerRun := testing.AllocsPerRun(100, func() {
		if err := f.stepAllInto(ctx, budgets, allocs); err != nil {
			t.Fatal(err)
		}
	})
	if allocsPerRun != 0 {
		t.Fatalf("default plan-path fleet tick allocated %v times per run, want 0", allocsPerRun)
	}
}

// A Fleet.Run tick also reports consumption. On the plan path that must
// not allocate either; reports that differ from the plan move each
// device's carry, and so its budget, every tick.
func TestFleetStepReportTickZeroAllocs(t *testing.T) {
	const n = 8
	f, err := NewFleet(n)
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

// A fleet stamps its controllers from one prototype into one slab, so
// building it costs the same allocations at any size; the tick scratch
// waits for the first tick.
func TestNewFleetAllocsIndependentOfSize(t *testing.T) {
	build := func(n int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := NewFleet(n, WithBattery(0, 0)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := build(1), build(32768); many > one {
		t.Fatalf("NewFleet(32768) allocated %v times, NewFleet(1) %v; want no more", many, one)
	}
}

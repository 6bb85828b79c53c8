package core

import (
	"math"
	"testing"
)

func TestLookaheadValidation(t *testing.T) {
	c := DefaultConfig()
	if _, err := Lookahead(Config{}, 0, 10, []float64{1}); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := Lookahead(c, 5, 1, []float64{1}); err == nil {
		t.Fatal("charge above capacity accepted")
	}
	if _, err := Lookahead(c, 0, 10, []float64{-1}); err == nil {
		t.Fatal("negative forecast accepted")
	}
	plan, err := Lookahead(c, 3, 10, nil)
	if err != nil || len(plan.Allocations) != 0 || plan.Battery[0] != 3 {
		t.Fatalf("empty horizon: %+v err %v", plan, err)
	}
}

func TestLookaheadMatchesMyopicOnFlatHarvest(t *testing.T) {
	// With a constant harvest and ample battery, shifting energy across
	// hours buys nothing: the lookahead optimum must equal the myopic
	// per-hour optimum.
	c := DefaultConfig()
	harvest := []float64{5, 5, 5, 5}
	plan, err := Lookahead(c, 0, 100, harvest)
	if err != nil {
		t.Fatal(err)
	}
	myopic, err := Solve(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.Objective-myopic.Objective(c)) > 1e-6 {
		t.Fatalf("lookahead J %v vs myopic J %v on flat harvest", plan.Objective, myopic.Objective(c))
	}
}

func TestLookaheadShiftsEnergyAcrossHours(t *testing.T) {
	// Feast then famine: 10 J then 0.5 J. Myopic burns the feast hour on
	// DP1 and starves the famine hour; lookahead banks energy.
	c := DefaultConfig()
	harvest := []float64{10, 0.5}
	plan, err := Lookahead(c, 0, 100, harvest)
	if err != nil {
		t.Fatal(err)
	}
	// Myopic baseline.
	var myopicJ float64
	battery := 0.0
	for _, h := range harvest {
		alloc, err := Solve(c, battery+h)
		if err != nil {
			t.Fatal(err)
		}
		battery = math.Max(0, battery+h-alloc.Energy(c))
		myopicJ += alloc.Objective(c)
	}
	myopicJ /= 2
	if plan.Objective <= myopicJ+1e-9 {
		t.Fatalf("lookahead J %v does not beat myopic %v on feast/famine", plan.Objective, myopicJ)
	}
	// The plan must bank energy: battery after hour 1 is positive.
	if plan.Battery[1] <= 0 {
		t.Fatalf("no energy banked: battery trajectory %v", plan.Battery)
	}
	// And both hours satisfy the time identity.
	for k, a := range plan.Allocations {
		if math.Abs(a.Total()-c.Period) > 1e-5 {
			t.Fatalf("hour %d: total %v != period", k, a.Total())
		}
	}
}

func TestLookaheadRespectsCapacity(t *testing.T) {
	// A tiny battery forbids banking: lookahead degenerates toward
	// myopic. Capacity must never be exceeded in the trajectory.
	c := DefaultConfig()
	harvest := []float64{10, 0.5, 10, 0.5}
	plan, err := Lookahead(c, 0, 2, harvest)
	if err != nil {
		t.Fatal(err)
	}
	for k, b := range plan.Battery {
		if b < -1e-6 || b > 2+1e-6 {
			t.Fatalf("battery[%d] = %v outside [0, 2]", k, b)
		}
	}
	big, err := Lookahead(c, 0, 100, harvest)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Objective > big.Objective+1e-9 {
		t.Fatalf("small battery (%v) beats large (%v)", plan.Objective, big.Objective)
	}
}

func TestLookaheadDarkStretchFallsBack(t *testing.T) {
	// Nothing harvested and nothing stored: the idle floor cannot be
	// paid, but the explicit dead variables keep the joint LP feasible,
	// so the LP itself must plan dead time rather than fail.
	// TestLookaheadMyopic covers the myopic fallback path.
	c := DefaultConfig()
	plan, err := Lookahead(c, 0, 10, []float64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Allocations) != 3 {
		t.Fatalf("%d allocations", len(plan.Allocations))
	}
	for k, a := range plan.Allocations {
		if a.ActiveTime() != 0 {
			t.Fatalf("hour %d active with no energy", k)
		}
		if a.Dead <= 0 {
			t.Fatalf("hour %d has no dead time in a blackout", k)
		}
	}
	if plan.Objective != 0 {
		t.Fatalf("objective %v in a blackout", plan.Objective)
	}
}

// TestLookaheadMyopic drives the fallback planner directly: one
// allocation per hour, a battery inside [0, capacity] that follows the
// settle recursion, and dead time once a blackout has drained it.
func TestLookaheadMyopic(t *testing.T) {
	c := DefaultConfig()
	const capacity = 10.0
	harvest := []float64{20, 8, 0, 0, 0, 3, 0}
	plan, err := lookaheadMyopic(c, 2, capacity, harvest)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Allocations) != len(harvest) || len(plan.Battery) != len(harvest)+1 {
		t.Fatalf("%d allocations and %d battery levels for %d hours",
			len(plan.Allocations), len(plan.Battery), len(harvest))
	}
	if plan.Battery[0] != 2 {
		t.Fatalf("initial battery %v, want 2", plan.Battery[0])
	}
	var sumJ float64
	dark := 0
	for k, a := range plan.Allocations {
		b := plan.Battery[k+1]
		if b < 0 || b > capacity {
			t.Fatalf("hour %d: battery %v outside [0, %v]", k, b, capacity)
		}
		want := math.Min(capacity, math.Max(0, plan.Battery[k]+harvest[k]-a.Energy(c)))
		if math.Abs(b-want) > 1e-9 {
			t.Fatalf("hour %d: battery %v, recursion gives %v", k, b, want)
		}
		if harvest[k] == 0 && plan.Battery[k] == 0 {
			dark++
			if a.ActiveTime() != 0 || a.Dead <= 0 {
				t.Fatalf("hour %d: active %v, dead %v in a drained blackout", k, a.ActiveTime(), a.Dead)
			}
		}
		sumJ += a.Objective(c)
	}
	if dark == 0 {
		t.Fatal("no blackout hour started with a drained battery")
	}
	if b := plan.Battery[1]; b != capacity {
		t.Fatalf("surplus hour left battery %v, want it full at %v", b, capacity)
	}
	if math.Abs(plan.Objective-sumJ/float64(len(harvest))) > 1e-12 {
		t.Fatalf("objective %v, hourly mean %v", plan.Objective, sumJ/float64(len(harvest)))
	}
}

func TestLookaheadEnergyConservation(t *testing.T) {
	c := DefaultConfig()
	harvest := []float64{3, 7, 1, 5, 0.5, 6}
	plan, err := Lookahead(c, 10, 50, harvest)
	if err != nil {
		t.Fatal(err)
	}
	// Check the battery recursion hour by hour.
	for k, a := range plan.Allocations {
		want := plan.Battery[k] + harvest[k] - a.Energy(c)
		if math.Abs(plan.Battery[k+1]-want) > 1e-4 {
			t.Fatalf("hour %d: battery %v, recursion gives %v", k, plan.Battery[k+1], want)
		}
	}
}

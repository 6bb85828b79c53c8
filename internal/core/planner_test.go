package core

import (
	"errors"
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

// TestLookaheadRejectsNonFinite: a NaN battery or capacity, an infinite
// capacity and an infinite forecast are refused with the package's
// sentinels before they reach the LP.
func TestLookaheadRejectsNonFinite(t *testing.T) {
	c := DefaultConfig()
	nan, inf := math.NaN(), math.Inf(1)
	for _, bc := range [][2]float64{{nan, 10}, {0, nan}, {0, inf}, {inf, inf}} {
		if _, err := Lookahead(c, bc[0], bc[1], []float64{1}); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("battery %v/%v: err %v, want ErrInvalidConfig", bc[0], bc[1], err)
		}
	}
	for _, h := range []float64{inf, nan, -1} {
		if _, err := Lookahead(c, 0, 10, []float64{1, h}); !errors.Is(err, ErrBudgetNegative) {
			t.Errorf("forecast %v: err %v, want ErrBudgetNegative", h, err)
		}
	}
}

// TestLookaheadSpillsSurplus: an hour that harvests more than it can
// draw plus the battery's headroom spills the rest, which without a
// spill column would make the joint LP infeasible. From an empty 20 J
// battery, a 40 J hour runs DP1 for the whole hour and banks 20 J, and
// the three dark hours share it.
func TestLookaheadSpillsSurplus(t *testing.T) {
	c := DefaultConfig()
	plan, err := Lookahead(c, 0, 20, []float64{40, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	full, err := p.Solve(c.MaxUsefulBudget())
	if err != nil {
		t.Fatal(err)
	}
	dark, err := p.Solve(20.0 / 3)
	if err != nil {
		t.Fatal(err)
	}
	want := (full.Objective(c) + 3*dark.Objective(c)) / 4
	if !approx(plan.Objective, want, 1e-9*want) {
		t.Fatalf("horizon objective %.9f, want %.9f", plan.Objective, want)
	}
	if b := plan.Battery[1]; !approx(b, 20, 1e-6) {
		t.Fatalf("battery after the surplus hour %v, want it full at 20", b)
	}
}

// TestLookaheadScaledObjective: with a zero-capacity battery every hour
// stands alone, and its optimum is the plan of the same configuration
// with a zero off power (the lookahead may let the device die instead
// of idling). At α = 0.025 the unscaled weights aᵢ^α/(K·TP) differ by
// less than the simplex's absolute tolerance, so only a scaled
// objective reaches this optimum.
func TestLookaheadScaledObjective(t *testing.T) {
	c := DefaultConfig()
	c.Alpha = 0.025
	harvest := []float64{6.5, 8, 3.5}
	plan, err := Lookahead(c, 0, 0, harvest)
	if err != nil {
		t.Fatal(err)
	}
	free := c
	free.POff = 0
	p, err := NewPlan(free)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, h := range harvest {
		a, err := p.Solve(h)
		if err != nil {
			t.Fatal(err)
		}
		want += a.Objective(free) / float64(len(harvest))
	}
	if !approx(plan.Objective, want, 1e-9*want) {
		t.Fatalf("horizon objective %.9f, want %.9f", plan.Objective, want)
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

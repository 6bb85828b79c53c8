package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomConfig derives a valid random configuration from a seed.
func randomConfig(seed int64) (Config, float64) {
	rng := rand.New(rand.NewSource(seed))
	c := Config{
		Period: 600 + rng.Float64()*7200,
		POff:   rng.Float64() * 2e-4,
		Alpha:  []float64{0, 0.5, 1, 2, 4, 8}[rng.Intn(6)],
	}
	n := 2 + rng.Intn(6)
	for i := 0; i < n; i++ {
		c.DPs = append(c.DPs, DesignPoint{
			Name:     "dp",
			Accuracy: 0.2 + rng.Float64()*0.8,
			Power:    c.POff + 1e-4 + rng.Float64()*4e-3,
		})
	}
	budget := rng.Float64() * c.MaxUsefulBudget() * 1.3
	return c, budget
}

func TestQuickAllocationInvariants(t *testing.T) {
	// For every valid configuration and budget, the solver's output
	// satisfies the LP's constraints and basic physics.
	f := func(seed int64) bool {
		c, budget := randomConfig(seed)
		a, err := Solve(c, budget)
		if err != nil {
			return false
		}
		// Time identity.
		if math.Abs(a.Total()-c.Period) > 1e-5 {
			return false
		}
		// Non-negativity.
		for _, v := range a.Active {
			if v < 0 {
				return false
			}
		}
		if a.Off < 0 || a.Dead < 0 {
			return false
		}
		// Budget respected.
		if a.Energy(c) > budget+1e-6 {
			return false
		}
		// Expected accuracy bounded by the best design point.
		best := 0.0
		for _, d := range c.DPs {
			if d.Accuracy > best {
				best = d.Accuracy
			}
		}
		if a.ExpectedAccuracy(c) > best+1e-9 {
			return false
		}
		// Objective is non-negative.
		return a.Objective(c) >= -1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMoreBudgetNeverHurts(t *testing.T) {
	f := func(seed int64) bool {
		c, budget := randomConfig(seed)
		a1, err := Solve(c, budget)
		if err != nil {
			return false
		}
		a2, err := Solve(c, budget*1.2+0.01)
		if err != nil {
			return false
		}
		return a2.Objective(c) >= a1.Objective(c)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickREAPWeaklyDominatesEveryStatic(t *testing.T) {
	f := func(seed int64) bool {
		c, budget := randomConfig(seed)
		a, err := Solve(c, budget)
		if err != nil {
			return false
		}
		reapJ := a.Objective(c)
		for i := range c.DPs {
			if StaticObjective(c, i, budget) > reapJ+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickShadowPriceIsLocalSlope(t *testing.T) {
	// Wherever the price is defined and the budget is interior to its
	// regime, a small budget increase raises J by ~price x delta. J* is
	// linear between adjacent region boundaries, so steps that stay
	// between the two around the budget stay on one envelope segment.
	f := func(seed int64) bool {
		c, budget := randomConfig(seed)
		if budget <= c.MinBudget()*1.1 || budget >= c.MaxUsefulBudget()*0.95 {
			return true // skip boundary regimes
		}
		lo, hi := c.MinBudget(), c.MaxUsefulBudget()
		for _, b := range RegionBoundaries(c) {
			if b <= budget {
				lo = math.Max(lo, b)
			} else {
				hi = math.Min(hi, b)
			}
		}
		h := math.Min(budget-lo, hi-budget) / 4
		if h <= 1e-9 {
			return true // degenerate at a boundary
		}
		p, err := NewPlan(c)
		if err != nil {
			return false
		}
		price, err := p.ShadowPrice(budget)
		if err != nil {
			return false
		}
		a1, err := Solve(c, budget)
		if err != nil {
			return false
		}
		a2, err := Solve(c, budget+h)
		if err != nil {
			return false
		}
		gain := a2.Objective(c) - a1.Objective(c)
		return math.Abs(gain-price*h) <= 1e-6*(1+math.Abs(gain))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickParetoFrontIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		var dps []DesignPoint
		for i := 0; i < n; i++ {
			dps = append(dps, DesignPoint{
				Accuracy: rng.Float64(),
				Power:    0.1 + rng.Float64(),
			})
		}
		once := ParetoFront(dps)
		twice := ParetoFront(once)
		if len(once) != len(twice) {
			return false
		}
		for i := range once {
			if once[i] != twice[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLookaheadNeverWorseThanMyopic(t *testing.T) {
	// With a generous battery, joint planning can only improve on the
	// greedy hour-by-hour path (it can always reproduce it).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := DefaultConfig()
		k := 2 + rng.Intn(4)
		forecast := make([]float64, k)
		for i := range forecast {
			forecast[i] = rng.Float64() * 12
		}
		plan, err := Lookahead(c, 0, 1e6, forecast)
		if err != nil {
			return false
		}
		// Myopic replay with the same (infinite) battery.
		battery := 0.0
		var myopicJ float64
		for _, h := range forecast {
			a, err := Solve(c, battery+h)
			if err != nil {
				return false
			}
			battery = math.Max(0, battery+h-a.Energy(c))
			myopicJ += a.Objective(c)
		}
		myopicJ /= float64(k)
		return plan.Objective >= myopicJ-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

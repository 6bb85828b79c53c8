package core

// StaticAllocation models the baseline policies of the paper's evaluation:
// the device runs a single design point i, duty-cycled against the off
// state so the period's energy budget is respected. This is what Figures
// 5–7 plot as "DP1".."DP5".
func StaticAllocation(c Config, i int, budget float64) Allocation {
	alloc := Allocation{Active: make([]float64, len(c.DPs))}
	floor := c.MinBudget()
	if budget < floor {
		// Same sub-floor behaviour as the optimizer.
		alloc.Off, alloc.Dead = idleThenDead(budget, c.POff, c.Period)
		return alloc
	}
	t := c.Period
	if denom := c.DPs[i].Power - c.POff; denom > 0 {
		if tMax := (budget - floor) / denom; tMax < t {
			t = tMax
		}
	}
	if t < 0 {
		t = 0
	}
	alloc.Active[i] = t
	alloc.Off = c.Period - t
	return alloc
}

// StaticObjective evaluates J(t) for the static design-point-i baseline.
func StaticObjective(c Config, i int, budget float64) float64 {
	return StaticAllocation(c, i, budget).Objective(c)
}

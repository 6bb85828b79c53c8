// Quickstart: solve one hour's energy-accuracy allocation with the
// public API, using the paper's five Table 2 design points, and see how
// the optimal schedule changes across the three operating regions.
package main

import (
	"context"
	"fmt"

	"repro"
)

func main() {
	ctx := context.Background()
	cfg, err := reap.NewConfig() // the paper's defaults; compose WithAlpha etc. to change them
	if err != nil {
		panic(err)
	}
	fmt.Println("REAP quickstart: the paper's five design points")
	for _, dp := range cfg.DPs {
		fmt.Printf("  %-4s accuracy %.0f%%  power %.2f mW (%.2f J/hour)\n",
			dp.Name, 100*dp.Accuracy, 1e3*dp.Power, dp.EnergyPerPeriod(cfg.Period))
	}
	fmt.Printf("off-state floor %.2f J/hour\n\n", cfg.MinBudget())

	// The paper's running example: a 5 J hourly budget lands in Region 2,
	// and the optimum mixes DP4 (42%) with DP5 (58%).
	for _, budget := range []float64{0.5, 2.0, 5.0, 8.0, 10.5} {
		// reap.Solve answers on the compiled plan: the configuration
		// compiles once, then every budget is a binary search.
		alloc, err := reap.Solve(ctx, cfg, budget)
		if err != nil {
			panic(err)
		}
		fmt.Printf("budget %5.1f J  [%s]\n", budget, reap.Classify(cfg, budget))
		fmt.Printf("  schedule          %v\n", alloc)
		fmt.Printf("  expected accuracy %.1f%%\n", 100*alloc.ExpectedAccuracy(cfg))
		fmt.Printf("  active time       %.0f%% of the hour\n", 100*alloc.ActiveTime()/cfg.Period)

		// Compare with the best single design point at this budget.
		bestJ, best := 0.0, 0
		for i := range cfg.DPs {
			if j := reap.StaticObjective(cfg, i, budget); j > bestJ {
				bestJ, best = j, i
			}
		}
		fmt.Printf("  best static DP    %s with J=%.3f (REAP: %.3f)\n\n",
			cfg.DPs[best].Name, bestJ, alloc.Objective(cfg))
	}
}

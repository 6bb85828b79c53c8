package reap

import (
	"context"

	"repro/internal/core"
)

// The optimizers WithSolver accepts, by name. Solve, SolveBatch and
// every session built without WithSolver solve on the plan.
const (
	// SolverPlan is the compiled parametric solver: each configuration
	// compiles once into its budget-parametric solved form (the concave
	// budget→value envelope, see core.Plan), after which every solve is
	// a binary search over the envelope's breakpoints plus two
	// multiplies. Exact — the same optimum as simplex and enumerate to
	// floating-point noise — and the default.
	SolverPlan = "plan"
	// SolverSimplex is the paper's Algorithm 1: a dense two-phase simplex
	// over the period and budget constraints. Kept as the reference the
	// plan is checked against.
	SolverSimplex = "simplex"
	// SolverEnumerate solves the same LP by direct vertex enumeration —
	// an independent cross-check.
	SolverEnumerate = "enumerate"
)

// Solve returns the optimal allocation of an energy budget (joules)
// over one activity period under cfg — the LP the paper's Algorithm 1
// solves every hour — on the compiled plan core.PlanFor memoizes per
// configuration fingerprint, so repeated solves against one
// configuration pay compilation once. Arguments are checked context
// first, then configuration (an invalid config never memoizes, so it
// fails every call), then budget. Solve is safe for concurrent use.
func Solve(ctx context.Context, cfg Config, budget float64) (Allocation, error) {
	if err := ctx.Err(); err != nil {
		return Allocation{}, err
	}
	p, err := core.PlanFor(cfg)
	if err != nil {
		return Allocation{}, err
	}
	return p.Solve(budget)
}

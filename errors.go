package reap

import (
	"errors"

	"repro/internal/core"
)

// Sentinel errors of the public API. Every error the package returns
// wraps one of these, so callers branch with errors.Is rather than string
// matching:
//
//	alloc, err := reap.Solve(ctx, cfg, budget)
//	switch {
//	case errors.Is(err, reap.ErrBudgetNegative): // caller passed bad input
//	case errors.Is(err, reap.ErrInvalidConfig):  // options produced a bad Config
//	case errors.Is(err, reap.ErrInfeasible):     // no feasible schedule
//	}
var (
	// ErrInvalidConfig wraps every configuration failure: non-positive
	// period, negative alpha or off power, missing or malformed design
	// points, and inconsistent battery states.
	ErrInvalidConfig = core.ErrInvalidConfig
	// ErrBudgetNegative is returned when a solve, step or batch request
	// carries a negative or NaN energy value.
	ErrBudgetNegative = core.ErrBudgetNegative
	// ErrInfeasible is returned when the allocation LP has no feasible
	// solution; with a validated Config this signals numerical trouble,
	// not a modelling outcome.
	ErrInfeasible = core.ErrInfeasible
	// ErrSolverFailure is returned when the LP terminates without an
	// optimum for any reason other than infeasibility (unbounded,
	// iteration limit).
	ErrSolverFailure = core.ErrSolverFailure
	// ErrUnknownSolver is returned by WithSolver for a name other than
	// SolverPlan, SolverSimplex and SolverEnumerate, and by the wire
	// layer for a request that names any solver but the plan.
	ErrUnknownSolver = errors.New("reap: unknown solver backend")
)

package core

import (
	"errors"
	"fmt"

	"repro/internal/lp"
)

// Sentinel errors of the optimizer layer. Every error returned by the
// package wraps exactly one of these (or ErrNoDesignPoints, which itself
// pairs with ErrInvalidConfig), so callers classify failures with
// errors.Is instead of string matching:
//
//	_, err := core.SolveContext(ctx, cfg, budget)
//	switch {
//	case errors.Is(err, core.ErrBudgetNegative): // caller bug
//	case errors.Is(err, core.ErrInvalidConfig):  // bad design points etc.
//	case errors.Is(err, core.ErrInfeasible):     // no feasible schedule
//	}
var (
	// ErrInvalidConfig wraps every configuration validation failure:
	// non-positive period, negative off power or alpha, missing or
	// malformed design points.
	ErrInvalidConfig = errors.New("core: invalid configuration")
	// ErrBudgetNegative is returned when a solve or step receives a
	// negative or NaN energy budget, or a report a negative or NaN
	// consumption, or one so large the controller's carry would
	// overflow to -Inf.
	ErrBudgetNegative = errors.New("core: energy budget must be non-negative")
	// ErrInfeasible is returned when the allocation LP has no feasible
	// solution. With a validated Config this cannot happen for budgets at
	// or above the idle floor — its presence signals numerical trouble.
	ErrInfeasible = errors.New("core: allocation problem is infeasible")
	// ErrSolverFailure is returned when the LP terminates without an
	// optimum for any reason other than infeasibility (unbounded,
	// iteration limit) — always numerical trouble on this problem class.
	ErrSolverFailure = errors.New("core: solver failed to reach optimality")
)

// solveStatusError converts a terminal LP status into the package's error
// taxonomy: infeasibility maps onto ErrInfeasible, every other terminal
// status onto ErrSolverFailure, and the lp-layer sentinel always stays in
// the chain.
func solveStatusError(status lp.Status) error {
	err := status.Err()
	if errors.Is(err, lp.ErrInfeasible) {
		return fmt.Errorf("%w: %w", ErrInfeasible, err)
	}
	return fmt.Errorf("%w: %w", ErrSolverFailure, err)
}

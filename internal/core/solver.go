package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/lp"
)

// checkSolveArgs runs the shared argument validation of every solve entry
// point: a cancelled context, an invalid configuration, or a negative or
// NaN budget each map onto the package's sentinel errors.
func checkSolveArgs(ctx context.Context, c Config, budget float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := c.Validate(); err != nil {
		return err
	}
	if math.IsNaN(budget) || budget < 0 {
		return fmt.Errorf("%w: got %v", ErrBudgetNegative, budget)
	}
	return nil
}

// Solve computes the optimal allocation for the given energy budget (J)
// using the simplex method, mirroring Algorithm 1 of the paper. Budgets
// below the off-state floor are handled outside the LP: the device idles
// for as long as the budget allows and is dead for the remainder.
func Solve(c Config, budget float64) (Allocation, error) {
	return SolveContext(context.Background(), c, budget) //lint:reapvet ctxflow -- context-free compatibility shim; the root context is deliberate
}

// SolveContext is Solve with cancellation: the context is checked before
// the LP is built. The solve itself runs in microseconds, so no further
// checks happen mid-pivot; the context exists so fleet-scale callers can
// drain a batch promptly after cancellation.
func SolveContext(ctx context.Context, c Config, budget float64) (Allocation, error) {
	if err := checkSolveArgs(ctx, c, budget); err != nil {
		return Allocation{}, err
	}
	if alloc, done := preLP(c, budget); done {
		return alloc, nil
	}

	n := len(c.DPs)
	// Variables: t_1..t_N, t_off. The weight vector is computed once up
	// front so math.Pow stays out of the row-building loop.
	obj := make([]float64, n+1)
	c.scaledWeights(obj[:n])
	timeRow := make([]float64, n+1)
	energyRow := make([]float64, n+1)
	for i := 0; i < n; i++ {
		timeRow[i] = 1
		energyRow[i] = c.DPs[i].Power
	}
	timeRow[n] = 1
	energyRow[n] = c.POff

	p := &lp.Problem{
		Objective: obj,
		Constraints: []lp.Constraint{
			{Coeffs: timeRow, Op: lp.EQ, RHS: c.Period},
			{Coeffs: energyRow, Op: lp.LE, RHS: budget},
		},
	}
	sol, err := lp.Solve(p)
	if err != nil {
		return Allocation{}, err
	}
	if sol.Status != lp.Optimal {
		return Allocation{}, fmt.Errorf("core: solver terminated early: %w", solveStatusError(sol.Status))
	}
	alloc := Allocation{Active: sol.X[:n:n], Off: sol.X[n]}
	clampAllocation(&alloc, c.Period)
	return alloc, nil
}

// scaledWeights fills dst (len(c.DPs) long) with the objective weights
// aᵢ^α scaled so the largest is 1, the objective row of every simplex
// solve. The optimal vertex does not depend on the scale, but the
// simplex compares reduced costs with an absolute tolerance, and raw
// weights aᵢ^α/TP fall near it at large α (0.2⁸/TP is ~10⁻⁹), where the
// pivots stopped short of the optimum.
func (c Config) scaledWeights(dst []float64) []float64 {
	c.weightVector(dst)
	wmax := 0.0
	for _, w := range dst {
		wmax = math.Max(wmax, w)
	}
	if wmax > 0 {
		for i := range dst {
			dst[i] /= wmax
		}
	}
	return dst
}

// SolveEnumerate computes the same optimum by direct vertex enumeration.
// Because the LP has exactly two structural constraints, every basic
// solution has at most two nonzero times, so the optimum is either a single
// state run for the whole period or a mix of two states with the budget
// binding. This independent solver cross-checks the simplex path and is
// also faster for small N (O(N²) with tiny constants).
func SolveEnumerate(c Config, budget float64) (Allocation, error) {
	return SolveEnumerateContext(context.Background(), c, budget) //lint:reapvet ctxflow -- context-free compatibility shim; the root context is deliberate
}

// SolveEnumerateContext is SolveEnumerate with cancellation, checked once
// at entry (see SolveContext).
func SolveEnumerateContext(ctx context.Context, c Config, budget float64) (Allocation, error) {
	if err := checkSolveArgs(ctx, c, budget); err != nil {
		return Allocation{}, err
	}
	if alloc, done := preLP(c, budget); done {
		return alloc, nil
	}

	n := len(c.DPs)
	// State i in [0,n) is a design point; state n is "off". The weight
	// vector is hoisted out of the O(N²) vertex loops — value() used to
	// recompute math.Pow per candidate pair.
	weights := c.weightVector(make([]float64, n))
	power := func(i int) float64 {
		if i == n {
			return c.POff
		}
		return c.DPs[i].Power
	}
	value := func(i int) float64 {
		if i == n {
			return 0
		}
		return weights[i]
	}

	// One scratch allocation for the whole solve: consider overwrites it
	// in place on improvement instead of allocating a fresh Active slice
	// per improving vertex (which produced O(N²) garbage per solve).
	best := Allocation{Active: make([]float64, n), Off: c.Period}
	bestJ := math.Inf(-1)
	consider := func(i, j int, ti, tj float64) {
		if ti < -1e-9 || tj < -1e-9 || ti+tj > c.Period+1e-6 {
			return
		}
		if ti < 0 {
			ti = 0
		}
		if tj < 0 {
			tj = 0
		}
		J := (value(i)*ti + value(j)*tj) / c.Period
		if J <= bestJ {
			return
		}
		for k := range best.Active {
			best.Active[k] = 0
		}
		best.Off, best.Dead = 0, 0
		if i == n {
			best.Off = ti
		} else {
			best.Active[i] = ti
		}
		if j == n {
			best.Off += tj
		} else {
			best.Active[j] += tj
		}
		bestJ = J
	}

	// Single-state vertices: run state i for the whole period if the
	// budget allows (budget slack absorbs the rest).
	for i := 0; i <= n; i++ {
		if power(i)*c.Period <= budget+1e-9 {
			consider(i, n, c.Period, 0)
		}
	}
	// Two-state vertices with the budget binding:
	// t_i + t_j = TP, P_i t_i + P_j t_j = Eb.
	for i := 0; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			pi, pj := power(i), power(j)
			if math.Abs(pi-pj) < 1e-15 {
				continue
			}
			ti := (budget - pj*c.Period) / (pi - pj)
			tj := c.Period - ti
			if ti < -1e-9 || tj < -1e-9 {
				continue
			}
			consider(i, j, ti, tj)
		}
	}
	clampAllocation(&best, c.Period)
	return best, nil
}

// preLP handles the regime the LP cannot express: a budget below the
// off-state floor (the device dies partway through the period). It
// returns done=false when the LP must run.
func preLP(c Config, budget float64) (Allocation, bool) {
	if budget < c.MinBudget() {
		off, dead := idleThenDead(budget, c.POff, c.Period)
		return Allocation{Active: make([]float64, len(c.DPs)), Off: off, Dead: dead}, true
	}
	return Allocation{}, false
}

// idleThenDead is the sub-floor regime every solver and the static
// baselines share: when not even the idle circuitry survives the
// period, the device stays off (idle, drawing pOff) until the budget
// is gone, clamped to the period, and is dead for the rest.
func idleThenDead(budget, pOff, period float64) (off, dead float64) {
	if pOff > 0 {
		off = budget / pOff
	}
	if off > period {
		off = period
	}
	return off, period - off
}

// clampAllocation removes floating-point dust and re-normalizes the time
// identity t_off + Σtᵢ = TP.
func clampAllocation(a *Allocation, period float64) {
	for i, t := range a.Active {
		if t < 1e-9 {
			a.Active[i] = 0
		}
	}
	if a.Off < 1e-9 {
		a.Off = 0
	}
	// Restore the exact time identity by adjusting off time.
	slack := period - a.ActiveTime() - a.Dead
	if slack < 0 {
		slack = 0
	}
	a.Off = slack
}

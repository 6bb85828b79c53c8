package core

import (
	"fmt"
	"math"

	"repro/internal/lp"
)

// Schedule is a multi-period schedule produced by the lookahead planner: one
// Allocation per hour plus the planned battery trajectory.
type Schedule struct {
	// Allocations holds one schedule per planned period.
	Allocations []Allocation
	// Battery holds the planned battery level at the START of each
	// period, plus one final entry for the end of the horizon.
	Battery []float64
	// Objective is the horizon-mean J(t).
	Objective float64
}

// Lookahead jointly optimizes K consecutive periods against a harvest
// forecast and a finite battery — the natural extension of the paper's
// myopic hourly LP (REAP re-optimizes each hour because "the available
// energy budget is not known at design time"; with a forecast, energy can
// be shifted across hours through the battery). The joint problem is still
// an LP:
//
//	maximize   (1/(K·TP)) Σ_k Σ_i aᵢ^α t[k,i]
//	subject to Σ_i t[k,i] + t_off[k] + t_dead[k] = TP                       ∀k
//	           b[k+1] = b[k] + h[k] − Σ_i Pᵢ t[k,i] − P_off t_off[k] − s[k] ∀k
//	           0 ≤ b[k] ≤ capacity,  b[0] = battery0,  t, s ≥ 0
//
// Storage round-trip losses are not modelled (they would make the dynamics
// non-linear); DESIGN.md documents the simplification.
//
// Unlike the single-period LP, each hour carries two extra columns. The
// dead variable t_dead (zero power, zero objective) lets a schedule die
// partway through a lean hour instead of banking energy just to pay that
// hour's idle floor. The spill s[k] is harvest the full battery cannot
// absorb, which an hour may otherwise be unable to draw. Together they
// keep the joint problem feasible for any finite, non-negative harvest
// sequence, and its optimum dominates every myopic schedule. A solver
// status other than optimal is returned as an error.
func Lookahead(c Config, battery0, capacity float64, forecast []float64) (*Schedule, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if battery0 < 0 || capacity < 0 || battery0 > capacity+1e-9 ||
		math.IsNaN(battery0) || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		return nil, fmt.Errorf("%w: battery state %v/%v invalid", ErrInvalidConfig, battery0, capacity)
	}
	k := len(forecast)
	if k == 0 {
		return &Schedule{Battery: []float64{battery0}}, nil
	}
	for _, h := range forecast {
		if h < 0 || math.IsNaN(h) || math.IsInf(h, 0) {
			return nil, fmt.Errorf("%w: forecast value %v", ErrBudgetNegative, h)
		}
	}

	n := len(c.DPs)
	perHour := n + 2 // t[k,0..n-1], t_off[k], t_dead[k]
	// Variable layout: k*perHour + i for times, then battery levels
	// b[1..k] at offset nt (b[0] is the constant battery0), then the
	// spills s[0..k-1] at offset nt+k.
	nt := k * perHour
	nv := nt + 2*k

	// Scaled like SolveContext's objective row; the optimum does not
	// depend on the scale.
	weights := c.scaledWeights(make([]float64, n))
	obj := make([]float64, nv)
	for kk := 0; kk < k; kk++ {
		copy(obj[kk*perHour:], weights)
	}

	var cons []lp.Constraint
	// Time identity per hour (design points + off + dead).
	for kk := 0; kk < k; kk++ {
		row := make([]float64, nv)
		for i := 0; i <= n+1; i++ {
			row[kk*perHour+i] = 1
		}
		cons = append(cons, lp.Constraint{Coeffs: row, Op: lp.EQ, RHS: c.Period})
	}
	// Battery dynamics: b[kk+1] + spend[kk] + s[kk] - b[kk] = h[kk].
	for kk := 0; kk < k; kk++ {
		row := make([]float64, nv)
		for i := 0; i < n; i++ {
			row[kk*perHour+i] = c.DPs[i].Power
		}
		row[kk*perHour+n] = c.POff // t_dead draws nothing
		row[nt+kk] = 1             // b[kk+1]
		row[nt+k+kk] = 1           // s[kk]
		rhs := forecast[kk]
		if kk == 0 {
			rhs += battery0
		} else {
			row[nt+kk-1] = -1 // -b[kk]
		}
		cons = append(cons, lp.Constraint{Coeffs: row, Op: lp.EQ, RHS: rhs})
	}
	// Battery capacity (non-negativity is implicit in the LP).
	for kk := 0; kk < k; kk++ {
		row := make([]float64, nv)
		row[nt+kk] = 1
		cons = append(cons, lp.Constraint{Coeffs: row, Op: lp.LE, RHS: capacity})
	}

	sol, err := lp.Solve(&lp.Problem{Objective: obj, Constraints: cons})
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("core: lookahead solver terminated early: %w", solveStatusError(sol.Status))
	}

	plan := &Schedule{Battery: []float64{battery0}}
	var sumJ float64
	for kk := 0; kk < k; kk++ {
		a := Allocation{Active: make([]float64, n)}
		copy(a.Active, sol.X[kk*perHour:kk*perHour+n])
		a.Off = sol.X[kk*perHour+n]
		a.Dead = sol.X[kk*perHour+n+1]
		if a.Dead < 1e-9 {
			a.Dead = 0
		}
		clampAllocation(&a, c.Period)
		plan.Allocations = append(plan.Allocations, a)
		plan.Battery = append(plan.Battery, sol.X[nt+kk])
		sumJ += a.Objective(c)
	}
	plan.Objective = sumJ / float64(k)
	return plan, nil
}

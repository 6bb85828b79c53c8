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
//	subject to Σ_i t[k,i] + t_off[k] = TP                         ∀k
//	           b[k+1] = b[k] + h[k] − Σ_i Pᵢ t[k,i] − P_off t_off[k] ∀k
//	           0 ≤ b[k] ≤ capacity,  b[0] = battery0,  t ≥ 0
//
// Storage round-trip losses are not modelled (they would make the dynamics
// non-linear); DESIGN.md documents the simplification.
//
// Unlike the single-period LP, each hour also carries an explicit dead
// variable (zero power, zero objective): a schedule may let the device
// die partway through a lean hour instead of banking energy just to pay
// that hour's idle floor. This keeps the joint problem feasible for any
// harvest sequence — including total blackouts — and makes its optimum
// genuinely dominate every myopic schedule. A myopic fallback remains as
// a defensive path should the solver ever fail numerically.
func Lookahead(c Config, battery0, capacity float64, forecast []float64) (*Schedule, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if battery0 < 0 || capacity < 0 || battery0 > capacity+1e-9 {
		return nil, fmt.Errorf("%w: battery state %v/%v invalid", ErrInvalidConfig, battery0, capacity)
	}
	k := len(forecast)
	if k == 0 {
		return &Schedule{Battery: []float64{battery0}}, nil
	}
	for _, h := range forecast {
		if h < 0 || math.IsNaN(h) {
			return nil, fmt.Errorf("%w: forecast value %v", ErrBudgetNegative, h)
		}
	}

	n := len(c.DPs)
	perHour := n + 2 // t[k,0..n-1], t_off[k], t_dead[k]
	// Variable layout: k*perHour + i for times, then battery levels
	// b[1..k] at offset k*perHour (b[0] is the constant battery0).
	nt := k * perHour
	nv := nt + k

	obj := make([]float64, nv)
	for kk := 0; kk < k; kk++ {
		for i := 0; i < n; i++ {
			obj[kk*perHour+i] = c.weight(i) / (float64(k) * c.Period)
		}
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
	// Battery dynamics: b[kk+1] + spend[kk] - b[kk] = h[kk].
	for kk := 0; kk < k; kk++ {
		row := make([]float64, nv)
		for i := 0; i < n; i++ {
			row[kk*perHour+i] = c.DPs[i].Power
		}
		row[kk*perHour+n] = c.POff // t_dead draws nothing
		row[nt+kk] = 1             // b[kk+1]
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
		// The dead variables keep the LP feasible, so only a numerical
		// failure lands here: fall back to myopic planning.
		return lookaheadMyopic(c, battery0, capacity, forecast)
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
		clampAllocation(&a, c)
		plan.Allocations = append(plan.Allocations, a)
		plan.Battery = append(plan.Battery, sol.X[nt+kk])
		sumJ += a.Objective(c)
	}
	plan.Objective = sumJ / float64(k)
	return plan, nil
}

// lookaheadMyopic degrades gracefully should the joint LP fail
// numerically: each hour steps a Controller that holds the battery, so
// every hour is planned with Solve against harvest plus whatever the
// battery holds, exactly as at runtime.
func lookaheadMyopic(c Config, battery0, capacity float64, forecast []float64) (*Schedule, error) {
	ctl, err := NewController(c, battery0, capacity)
	if err != nil {
		return nil, err
	}
	plan := &Schedule{Battery: []float64{battery0}}
	var sumJ float64
	for _, h := range forecast {
		alloc, err := ctl.Step(h)
		if err != nil {
			return nil, err
		}
		plan.Allocations = append(plan.Allocations, alloc)
		plan.Battery = append(plan.Battery, ctl.Battery())
		sumJ += alloc.Objective(c)
	}
	plan.Objective = sumJ / float64(len(forecast))
	return plan, nil
}

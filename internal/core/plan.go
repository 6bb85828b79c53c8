package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fpx"
)

// Plan is a Config compiled into the parametric form of the allocation
// LP. The LP has exactly two structural constraints (the time identity
// and the energy budget), so its optimal value J*(Eb) is a
// piecewise-linear concave function of the budget whose breakpoints are
// the vertices of the upper concave envelope of the device's states in
// (energy-per-period, objective-weight) space — the off state at
// (POff·TP, 0) plus one point per design point at (Pᵢ·TP, aᵢ^α). Between
// two adjacent envelope vertices the optimum mixes exactly those two
// states with the budget binding; beyond the last vertex the best state
// runs the whole period; below the idle floor the device dies partway
// through (the regime the LP cannot express).
//
// Compiling the envelope once per configuration hoists everything a
// solve does not need to repeat: validation, the aᵢ^α powers, the sort
// by power, and the hull construction. A compiled Plan answers
// Solve(budget) with a binary search over the breakpoints plus two
// multiplies, and SolveInto reuses the caller's Active slice so the
// steady-state solve path allocates nothing.
//
// A Plan is immutable after NewPlan and therefore safe for concurrent
// use by any number of goroutines; a whole fleet shares one Plan per
// distinct configuration.
type Plan struct {
	cfg       Config
	weights   []float64
	minBudget float64

	// The envelope, in strictly increasing budget order. vertBudget[k]
	// is the energy the vertex state consumes running the whole period
	// (a breakpoint of J*), vertValue[k] the objective it then earns,
	// and vertState[k] the design-point index (offState for the off
	// vertex, always index 0). Segment k mixes vertState[k] and
	// vertState[k+1]. Design points strictly below the envelope
	// (LP-dominated) appear in no vertex: no budget makes them optimal.
	vertBudget []float64
	vertValue  []float64
	vertState  []int
}

// offState marks the off vertex in Plan.vertState.
const offState = -1

// NewPlan validates the configuration and compiles it into its budget-
// parametric solved form. The design-point slice is copied, so later
// mutation of the caller's Config never reaches a compiled plan.
func NewPlan(c Config) (*Plan, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	c.DPs = append([]DesignPoint(nil), c.DPs...)
	n := len(c.DPs)
	p := &Plan{cfg: c, weights: make([]float64, n), minBudget: c.MinBudget()}
	c.weightVector(p.weights)

	type vert struct {
		budget, value float64
		state         int
	}
	verts := make([]vert, 0, n+1)
	verts = append(verts, vert{budget: p.minBudget, value: 0, state: offState})
	for i, d := range c.DPs {
		verts = append(verts, vert{budget: d.EnergyPerPeriod(c.Period), value: p.weights[i], state: i})
	}
	// Sort by budget; for equal budgets the higher-value state shadows
	// the rest (stable, so equal (budget, value) ties keep the lowest
	// index — deterministic compilation). The off vertex sorts strictly
	// first because Validate guarantees every Pᵢ > POff.
	sort.SliceStable(verts, func(i, j int) bool {
		if !fpx.Eq(verts[i].budget, verts[j].budget) {
			return verts[i].budget < verts[j].budget
		}
		return verts[i].value > verts[j].value
	})

	// Upper concave envelope (monotone-chain over the value-increasing
	// prefix). J* is non-decreasing — spending more never hurts while
	// the off state can absorb slack — so states that add energy without
	// adding value are skipped outright, and the hull ends at the
	// cheapest maximum-weight state.
	hull := make([]vert, 0, n+1)
	hull = append(hull, verts[0])
	for _, v := range verts[1:] {
		if v.value <= hull[len(hull)-1].value {
			continue
		}
		for len(hull) >= 2 {
			a, b := hull[len(hull)-2], hull[len(hull)-1]
			// Pop b when the a→v chord passes on or above it (slope to v
			// at least the slope to b), written cross-product style so no
			// division can overflow or lose precision.
			if (b.value-a.value)*(v.budget-b.budget) <= (v.value-b.value)*(b.budget-a.budget) {
				hull = hull[:len(hull)-1]
				continue
			}
			break
		}
		hull = append(hull, v)
	}

	p.vertBudget = make([]float64, len(hull))
	p.vertValue = make([]float64, len(hull))
	p.vertState = make([]int, len(hull))
	for k, v := range hull {
		p.vertBudget[k] = v.budget
		p.vertValue[k] = v.value
		p.vertState[k] = v.state
	}
	return p, nil
}

// ShadowPrice returns ∂J*/∂Eb, the objective gained per additional joule
// of budget: the marginal value of harvested energy, which is what the
// dual of the LP's energy constraint reports. J* is linear between the
// envelope's breakpoints, so the price is the slope of the segment that
// contains the budget and needs no second solve. In Region 1 it equals
// aᵢ^α/(TP·(Pᵢ−P_off)) for the marginal design point; it steps down at
// each breakpoint and is zero from the last one on, where the best state
// already runs the whole period.
//
// Below the idle floor the price is zero: an extra joule only extends
// idle time. At a breakpoint the price is the slope of the segment to
// its right. NaN and negative budgets return ErrBudgetNegative.
// ShadowPrice allocates nothing.
//
//reap:hotpath
func (p *Plan) ShadowPrice(budget float64) (float64, error) {
	if math.IsNaN(budget) || budget < 0 {
		return 0, fmt.Errorf("%w: got %v", ErrBudgetNegative, budget) //lint:reapvet hotalloc -- cold error path
	}
	if budget < p.minBudget {
		return 0, nil
	}
	hi := sort.SearchFloat64s(p.vertBudget, budget)
	if hi < len(p.vertBudget) && fpx.Eq(p.vertBudget[hi], budget) {
		hi++ // at a breakpoint: price the segment to its right
	}
	if hi == len(p.vertBudget) {
		return 0, nil // saturated: the budget constraint is slack
	}
	lo := hi - 1
	return (p.vertValue[hi] - p.vertValue[lo]) / (p.vertBudget[hi] - p.vertBudget[lo]), nil
}

// Solve computes the optimal allocation for the budget (J). It is exact:
// the result optimizes the same LP as Solve/SolveEnumerate, to floating-
// point noise. Use SolveInto to reuse an allocation across solves.
func (p *Plan) Solve(budget float64) (Allocation, error) {
	var a Allocation
	if err := p.SolveInto(budget, &a); err != nil {
		return Allocation{}, err
	}
	return a, nil
}

// SolveInto writes the optimal allocation for the budget into dst,
// reusing dst.Active when its capacity suffices — after the first call
// with a given dst, solving allocates nothing. dst's previous contents
// are fully overwritten.
//
//reap:hotpath
func (p *Plan) SolveInto(budget float64, dst *Allocation) error {
	if math.IsNaN(budget) || budget < 0 {
		return fmt.Errorf("%w: got %v", ErrBudgetNegative, budget) //lint:reapvet hotalloc -- cold error path
	}
	n := len(p.cfg.DPs)
	if cap(dst.Active) < n {
		dst.Active = make([]float64, n) //lint:reapvet hotalloc -- one-time buffer growth, amortized to zero
	} else {
		dst.Active = dst.Active[:n]
		for i := range dst.Active {
			dst.Active[i] = 0
		}
	}
	dst.Off, dst.Dead = 0, 0

	if budget < p.minBudget {
		// Below the idle floor the LP is infeasible in spirit: idle for
		// as long as the budget lasts, dead for the rest (same regime
		// preLP carves off for the iterative solvers).
		off := 0.0
		if p.cfg.POff > 0 {
			off = budget / p.cfg.POff
		}
		if off > p.cfg.Period {
			off = p.cfg.Period
		}
		dst.Off = off
		dst.Dead = p.cfg.Period - off
		return nil
	}

	k := len(p.vertBudget)
	if budget >= p.vertBudget[k-1] {
		// Saturation: the best state runs the whole period, the budget
		// constraint is slack.
		p.assign(dst, p.vertState[k-1], p.cfg.Period)
		clampAllocation(dst, p.cfg)
		return nil
	}
	hi := sort.SearchFloat64s(p.vertBudget, budget)
	if fpx.Eq(p.vertBudget[hi], budget) {
		// Exactly at a breakpoint: the vertex state alone is optimal.
		p.assign(dst, p.vertState[hi], p.cfg.Period)
		clampAllocation(dst, p.cfg)
		return nil
	}
	// Interior of segment (hi-1, hi): mix the two vertex states with the
	// budget binding. budget ≥ minBudget = vertBudget[0] guarantees
	// hi ≥ 1, and vertBudget[hi-1] ≤ budget < vertBudget[hi] keeps the
	// mixing fraction in [0, 1).
	lo := hi - 1
	lam := (budget - p.vertBudget[lo]) / (p.vertBudget[hi] - p.vertBudget[lo])
	tHigh := lam * p.cfg.Period
	p.assign(dst, p.vertState[hi], tHigh)
	p.assign(dst, p.vertState[lo], p.cfg.Period-tHigh)
	clampAllocation(dst, p.cfg)
	return nil
}

// assign adds t seconds to the given state (a design-point index or
// offState) in dst.
func (p *Plan) assign(dst *Allocation, state int, t float64) {
	if state == offState {
		dst.Off += t
		return
	}
	dst.Active[state] += t
}

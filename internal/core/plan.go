package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

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
// steady-state solve path allocates nothing. A Plan keeps only what a
// solve reads — the period, the off power, the design-point count and
// the envelope — and no copy of the design points.
//
// A Plan is immutable after NewPlan and therefore safe for concurrent
// use by any number of goroutines; a whole fleet shares one Plan per
// distinct configuration.
type Plan struct {
	period, pOff float64
	nDPs         int

	// hull is the envelope, in strictly increasing budget order. Each
	// vertex's state is a design-point index, or offState for the off
	// vertex; segment k mixes hull[k] and hull[k+1]. hull[0] is always
	// the cheapest state, so its budget is the idle floor POff·TP.
	// Design points strictly below the envelope (LP-dominated) appear
	// in no vertex: no budget makes them optimal.
	hull []vertex
}

// vertex is a device state in (energy-per-period, objective-weight)
// space: running state for the whole period consumes budget joules and
// earns value.
type vertex struct {
	budget, value float64
	state         int
}

// offState marks the off vertex's state.
const offState = -1

// stackVertices sizes NewPlan's scratch array, which stays on the stack
// for configurations of fewer design points.
const stackVertices = 16

// NewPlan validates the configuration and compiles it into its budget-
// parametric solved form. The plan keeps no reference to c, so later
// mutation of the caller's Config never reaches it. Compiling makes two
// allocations, the Plan and its envelope; the candidates are sorted and
// reduced to the envelope in one scratch array.
func NewPlan(c Config) (*Plan, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	var scratch [stackVertices]vertex
	verts := scratch[:0]
	if n := len(c.DPs) + 1; n > len(scratch) {
		verts = make([]vertex, 0, n)
	}
	verts = append(verts, vertex{budget: c.MinBudget(), value: 0, state: offState})
	for i, d := range c.DPs {
		verts = append(verts, vertex{budget: d.EnergyPerPeriod(c.Period), value: c.weight(i), state: i})
	}
	// Sort by budget; for equal budgets the higher-value state shadows
	// the rest (stable, so equal (budget, value) ties keep the lowest
	// index — deterministic compilation). The off vertex sorts first
	// because Validate guarantees every Pᵢ > POff; a design point whose
	// Pᵢ·TP rounds to POff·TP ties it exactly.
	slices.SortStableFunc(verts, func(a, b vertex) int {
		if !fpx.Eq(a.budget, b.budget) {
			if a.budget < b.budget {
				return -1
			}
			return 1
		}
		return cmp.Compare(b.value, a.value)
	})
	// Upper concave envelope (monotone-chain over the value-increasing
	// prefix). J* is non-decreasing — spending more never hurts while
	// the off state can absorb slack — so states that add energy without
	// adding value are skipped outright, and the hull ends at the
	// cheapest maximum-weight state. The chain builds the hull in the
	// front of verts: it never writes past the vertex it reads.
	n := 1
	for _, v := range verts[1:] {
		if v.value <= verts[n-1].value {
			continue
		}
		for n >= 2 {
			a, b := verts[n-2], verts[n-1]
			// Pop b when the a→v chord passes on or above it (slope to v
			// at least the slope to b), written cross-product style so no
			// division can overflow or lose precision.
			if (b.value-a.value)*(v.budget-b.budget) <= (v.value-b.value)*(b.budget-a.budget) {
				n--
				continue
			}
			break
		}
		verts[n] = v
		n++
	}
	hull := make([]vertex, n)
	copy(hull, verts)
	return &Plan{period: c.Period, pOff: c.POff, nDPs: len(c.DPs), hull: hull}, nil
}

// search returns the index of the first envelope vertex whose budget is
// at least budget, or len(p.hull) if there is none, as
// sort.SearchFloat64s would over the breakpoints.
func (p *Plan) search(budget float64) int {
	i, j := 0, len(p.hull)
	for i < j {
		h := int(uint(i+j) >> 1)
		if p.hull[h].budget >= budget {
			j = h
		} else {
			i = h + 1
		}
	}
	return i
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
	if budget < p.hull[0].budget {
		return 0, nil
	}
	hi := p.search(budget)
	if hi < len(p.hull) && fpx.Eq(p.hull[hi].budget, budget) {
		hi++ // at a breakpoint: price the segment to its right
	}
	if hi == len(p.hull) {
		return 0, nil // saturated: the budget constraint is slack
	}
	lo, up := p.hull[hi-1], p.hull[hi]
	return (up.value - lo.value) / (up.budget - lo.budget), nil
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
	n := p.nDPs
	if cap(dst.Active) < n {
		dst.Active = make([]float64, n) //lint:reapvet hotalloc -- one-time buffer growth, amortized to zero
	} else {
		dst.Active = dst.Active[:n]
		for i := range dst.Active {
			dst.Active[i] = 0
		}
	}
	dst.Off, dst.Dead = 0, 0

	if budget < p.hull[0].budget {
		// Below the idle floor the LP is infeasible in spirit (the
		// regime preLP carves off for the iterative solvers).
		dst.Off, dst.Dead = idleThenDead(budget, p.pOff, p.period)
		return nil
	}

	k := len(p.hull)
	if budget >= p.hull[k-1].budget {
		// Saturation: the best state runs the whole period, the budget
		// constraint is slack.
		p.assign(dst, p.hull[k-1].state, p.period)
		clampAllocation(dst, p.period)
		return nil
	}
	hi := p.search(budget)
	if fpx.Eq(p.hull[hi].budget, budget) {
		// Exactly at a breakpoint: the vertex state alone is optimal.
		p.assign(dst, p.hull[hi].state, p.period)
		clampAllocation(dst, p.period)
		return nil
	}
	// Interior of segment (hi-1, hi): mix the two vertex states with the
	// budget binding. budget ≥ hull[0].budget guarantees hi ≥ 1, and
	// hull[hi-1].budget ≤ budget < hull[hi].budget keeps the mixing
	// fraction in [0, 1).
	lo, up := p.hull[hi-1], p.hull[hi]
	lam := (budget - lo.budget) / (up.budget - lo.budget)
	tHigh := lam * p.period
	p.assign(dst, up.state, tHigh)
	p.assign(dst, lo.state, p.period-tHigh)
	clampAllocation(dst, p.period)
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

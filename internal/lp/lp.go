// Package lp implements a dense two-phase simplex solver for linear
// programs. It is the substrate for the paper's Algorithm 1 (the REAP
// procedure), which solves
//
//	maximize   c'x
//	subject to A x (≤ | = | ≥) b,   x ≥ 0
//
// at every activity period on the IoT device. The solver is deliberately
// allocation-light and deterministic: it uses Bland's anti-cycling rule, so
// the same instance always pivots through the same sequence of bases.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Op is the relational operator of a constraint row.
type Op int

const (
	// LE is a "less than or equal" (≤) constraint.
	LE Op = iota
	// GE is a "greater than or equal" (≥) constraint.
	GE
	// EQ is an equality (=) constraint.
	EQ
)

// Status reports the outcome of a Solve call.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraint set has no solution with x ≥ 0.
	Infeasible
	// Unbounded means the objective can be made arbitrarily large.
	Unbounded
	// IterationLimit means the pivot budget was exhausted before
	// optimality; the returned solution is the best basis visited.
	IterationLimit
)

// Constraint is one row of the constraint system: Coeffs·x Op RHS.
type Constraint struct {
	Coeffs []float64
	Op     Op
	RHS    float64
}

// Problem is a linear program in the natural (not standard) form
// maximize Objective·x subject to the Constraints and x ≥ 0.
type Problem struct {
	// Objective holds the coefficients c of the maximization objective.
	Objective []float64
	// Constraints holds the rows of the constraint system.
	Constraints []Constraint
	// MaxIter caps the number of simplex pivots across both phases.
	// Zero selects a generous default derived from the problem size.
	MaxIter int
}

// Solution is the result of solving a Problem.
type Solution struct {
	// Status describes how the solve terminated.
	Status Status
	// X holds the optimal values of the decision variables
	// (valid when Status is Optimal or IterationLimit).
	X []float64
	// Objective is the objective value c'X.
	Objective float64
	// Iterations is the total number of pivots performed.
	Iterations int
}

// Common solver errors.
var (
	ErrDimension = errors.New("lp: constraint width does not match objective length")
	ErrEmpty     = errors.New("lp: problem has no variables")
	// ErrMalformed wraps every remaining structural defect Validate can
	// find — invalid operators, non-finite coefficients — and out-of-domain
	// Status values, so every lp error reaches a sentinel via errors.Is.
	ErrMalformed = errors.New("lp: malformed input")
)

// Terminal status errors. Solve itself reports these through
// Solution.Status; Status.Err converts them into sentinel errors so
// callers can classify outcomes with errors.Is across package
// boundaries.
var (
	ErrInfeasible     = errors.New("lp: problem is infeasible")
	ErrUnbounded      = errors.New("lp: problem is unbounded")
	ErrIterationLimit = errors.New("lp: iteration limit reached before optimality")
)

// Err returns the sentinel error matching a non-Optimal status, or nil
// for Optimal. Unknown status values map to a generic error.
func (s Status) Err() error {
	switch s {
	case Optimal:
		return nil
	case Infeasible:
		return ErrInfeasible
	case Unbounded:
		return ErrUnbounded
	case IterationLimit:
		return ErrIterationLimit
	default:
		return fmt.Errorf("%w: unknown status %d", ErrMalformed, int(s))
	}
}

// eps is the numerical tolerance used for pivoting and feasibility tests.
const eps = 1e-9

// NumVars returns the number of decision variables.
func (p *Problem) NumVars() int { return len(p.Objective) }

// NumConstraints returns the number of constraint rows.
func (p *Problem) NumConstraints() int { return len(p.Constraints) }

// Validate checks structural consistency of the problem.
func (p *Problem) Validate() error {
	n := len(p.Objective)
	if n == 0 {
		return ErrEmpty
	}
	for i, c := range p.Constraints {
		if len(c.Coeffs) != n {
			return fmt.Errorf("%w: row %d has %d coefficients, want %d",
				ErrDimension, i, len(c.Coeffs), n)
		}
		if c.Op != LE && c.Op != GE && c.Op != EQ {
			return fmt.Errorf("%w: row %d has invalid operator %d", ErrMalformed, i, int(c.Op))
		}
		if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
			return fmt.Errorf("%w: row %d has non-finite RHS %v", ErrMalformed, i, c.RHS)
		}
		for j, v := range c.Coeffs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: row %d column %d has non-finite coefficient %v", ErrMalformed, i, j, v)
			}
		}
	}
	for j, v := range p.Objective {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: objective column %d has non-finite coefficient %v", ErrMalformed, j, v)
		}
	}
	return nil
}

// Value evaluates the objective at x.
func (p *Problem) Value(x []float64) float64 { return dot(p.Objective, x) }

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

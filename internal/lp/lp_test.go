package lp

import (
	"math"
	"testing"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func solveOK(t *testing.T, p *Problem) Solution {
	t.Helper()
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve returned error: %v\nproblem:\n%+v", err, p)
	}
	return sol
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		p    Problem
	}{
		{"empty", Problem{}},
		{"width mismatch", Problem{
			Objective:   []float64{1, 2},
			Constraints: []Constraint{{Coeffs: []float64{1}, Op: LE, RHS: 1}},
		}},
		{"nan objective", Problem{Objective: []float64{math.NaN()}}},
		{"nan rhs", Problem{
			Objective:   []float64{1},
			Constraints: []Constraint{{Coeffs: []float64{1}, Op: LE, RHS: math.NaN()}},
		}},
		{"inf coeff", Problem{
			Objective:   []float64{1},
			Constraints: []Constraint{{Coeffs: []float64{math.Inf(1)}, Op: LE, RHS: 1}},
		}},
		{"bad op", Problem{
			Objective:   []float64{1},
			Constraints: []Constraint{{Coeffs: []float64{1}, Op: Op(42), RHS: 1}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.p.Validate(); err == nil {
				t.Fatalf("Validate accepted invalid problem %q", tc.name)
			}
			if _, err := Solve(&tc.p); err == nil {
				t.Fatalf("Solve accepted invalid problem %q", tc.name)
			}
		})
	}
}

func TestSimpleLE(t *testing.T) {
	// max 3x + 2y s.t. x+y <= 4, x+3y <= 6  -> x=4, y=0, obj=12.
	p := &Problem{
		Objective: []float64{3, 2},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Op: LE, RHS: 4},
			{Coeffs: []float64{1, 3}, Op: LE, RHS: 6},
		},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !approx(sol.Objective, 12, 1e-7) {
		t.Fatalf("objective = %v, want 12", sol.Objective)
	}
	if !approx(sol.X[0], 4, 1e-7) || !approx(sol.X[1], 0, 1e-7) {
		t.Fatalf("x = %v, want [4 0]", sol.X)
	}
}

func TestClassicProductionLP(t *testing.T) {
	// max 5x + 4y s.t. 6x+4y<=24, x+2y<=6 -> x=3, y=1.5, obj=21.
	p := &Problem{
		Objective: []float64{5, 4},
		Constraints: []Constraint{
			{Coeffs: []float64{6, 4}, Op: LE, RHS: 24},
			{Coeffs: []float64{1, 2}, Op: LE, RHS: 6},
		},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal || !approx(sol.Objective, 21, 1e-7) {
		t.Fatalf("got status=%v obj=%v, want optimal 21", sol.Status, sol.Objective)
	}
	if !approx(sol.X[0], 3, 1e-7) || !approx(sol.X[1], 1.5, 1e-7) {
		t.Fatalf("x = %v, want [3 1.5]", sol.X)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// max x + 2y s.t. x + y = 10, y <= 6 -> x=4, y=6, obj=16.
	p := &Problem{
		Objective: []float64{1, 2},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Op: EQ, RHS: 10},
			{Coeffs: []float64{0, 1}, Op: LE, RHS: 6},
		},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal || !approx(sol.Objective, 16, 1e-7) {
		t.Fatalf("got status=%v obj=%v x=%v, want optimal 16", sol.Status, sol.Objective, sol.X)
	}
}

func TestGEConstraint(t *testing.T) {
	// max -x - y s.t. x + y >= 3, x <= 5, y <= 5.
	// Optimum sits on x+y=3 with objective -3.
	p := &Problem{
		Objective: []float64{-1, -1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Op: GE, RHS: 3},
			{Coeffs: []float64{1, 0}, Op: LE, RHS: 5},
			{Coeffs: []float64{0, 1}, Op: LE, RHS: 5},
		},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal || !approx(sol.Objective, -3, 1e-7) {
		t.Fatalf("got status=%v obj=%v, want optimal -3", sol.Status, sol.Objective)
	}
	if !feasible(p, sol.X, 1e-7) {
		t.Fatalf("solution %v infeasible", sol.X)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// -x - y <= -3 is x + y >= 3 in disguise.
	p := &Problem{
		Objective: []float64{-1, -2},
		Constraints: []Constraint{
			{Coeffs: []float64{-1, -1}, Op: LE, RHS: -3},
		},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal || !approx(sol.Objective, -3, 1e-7) {
		t.Fatalf("got status=%v obj=%v x=%v, want optimal -3 at [3 0]", sol.Status, sol.Objective, sol.X)
	}
	if !approx(sol.X[0], 3, 1e-7) {
		t.Fatalf("x = %v, want x0=3", sol.X)
	}
}

func TestInfeasible(t *testing.T) {
	p := &Problem{
		Objective: []float64{1},
		Constraints: []Constraint{
			{Coeffs: []float64{1}, Op: GE, RHS: 5},
			{Coeffs: []float64{1}, Op: LE, RHS: 3},
		},
	}
	sol := solveOK(t, p)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestInfeasibleEquality(t *testing.T) {
	p := &Problem{
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Op: EQ, RHS: 2},
			{Coeffs: []float64{1, 1}, Op: EQ, RHS: 5},
		},
	}
	sol := solveOK(t, p)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := &Problem{
		Objective: []float64{1, 0},
		Constraints: []Constraint{
			{Coeffs: []float64{0, 1}, Op: LE, RHS: 1},
		},
	}
	sol := solveOK(t, p)
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestRedundantEqualityRows(t *testing.T) {
	// Duplicate equality rows leave a redundant artificial in the basis
	// after phase 1; the solver must still reach the optimum.
	p := &Problem{
		Objective: []float64{2, 3},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Op: EQ, RHS: 4},
			{Coeffs: []float64{2, 2}, Op: EQ, RHS: 8},
		},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal || !approx(sol.Objective, 12, 1e-7) {
		t.Fatalf("got status=%v obj=%v x=%v, want optimal 12 at [0 4]", sol.Status, sol.Objective, sol.X)
	}
}

func TestDegenerateCycleGuard(t *testing.T) {
	// Beale's classic cycling example; Bland's rule must terminate.
	p := &Problem{
		Objective: []float64{0.75, -150, 0.02, -6},
		Constraints: []Constraint{
			{Coeffs: []float64{0.25, -60, -0.04, 9}, Op: LE, RHS: 0},
			{Coeffs: []float64{0.5, -90, -0.02, 3}, Op: LE, RHS: 0},
			{Coeffs: []float64{0, 0, 1, 0}, Op: LE, RHS: 1},
		},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !approx(sol.Objective, 0.05, 1e-7) {
		t.Fatalf("objective = %v, want 0.05", sol.Objective)
	}
}

func TestZeroObjective(t *testing.T) {
	p := &Problem{
		Objective: []float64{0, 0},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Op: LE, RHS: 1},
		},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal || !approx(sol.Objective, 0, 1e-12) {
		t.Fatalf("got status=%v obj=%v", sol.Status, sol.Objective)
	}
}

func TestIterationLimit(t *testing.T) {
	p := &Problem{
		Objective: []float64{3, 2},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Op: LE, RHS: 4},
			{Coeffs: []float64{1, 3}, Op: LE, RHS: 6},
		},
		MaxIter: 1,
	}
	sol := solveOK(t, p)
	if sol.Status != IterationLimit && sol.Status != Optimal {
		t.Fatalf("status = %v, want iteration-limit (or optimal if 1 pivot suffices)", sol.Status)
	}
}

func TestREAPShapedProblem(t *testing.T) {
	// The exact structure solved on-device: five design points plus an off
	// state, one time-equality, one energy budget. Paper's 5 J example:
	// optimal mix is DP4 for ~42% and DP5 for ~58% of the hour.
	const tp = 3600.0
	acc := []float64{0.94, 0.93, 0.92, 0.90, 0.76}
	pw := []float64{2.76e-3, 2.30e-3, 1.82e-3, 1.64e-3, 1.20e-3} // W
	const pOff = 50e-6
	budget := 5.0 // J

	obj := make([]float64, 6)
	timeRow := make([]float64, 6)
	energyRow := make([]float64, 6)
	for i := 0; i < 5; i++ {
		obj[i] = acc[i] / tp
		timeRow[i] = 1
		energyRow[i] = pw[i]
	}
	timeRow[5] = 1 // t_off
	energyRow[5] = pOff

	p := &Problem{
		Objective: obj,
		Constraints: []Constraint{
			{Coeffs: timeRow, Op: EQ, RHS: tp},
			{Coeffs: energyRow, Op: LE, RHS: budget},
		},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !feasible(p, sol.X, 1e-6) {
		t.Fatalf("solution infeasible: %v", sol.X)
	}
	t4, t5 := sol.X[3], sol.X[4]
	if !approx(t4/tp, 0.42, 0.02) || !approx(t5/tp, 0.58, 0.02) {
		t.Fatalf("allocation DP4=%.1f%% DP5=%.1f%%, want ~42%%/58%%", 100*t4/tp, 100*t5/tp)
	}
}

// feasible reports whether x satisfies every constraint of p (and x ≥ 0)
// within tolerance tol.
func feasible(p *Problem, x []float64, tol float64) bool {
	if len(x) != len(p.Objective) {
		return false
	}
	for _, v := range x {
		if v < -tol {
			return false
		}
	}
	for _, c := range p.Constraints {
		lhs := dot(c.Coeffs, x)
		switch c.Op {
		case LE:
			if lhs > c.RHS+tol {
				return false
			}
		case GE:
			if lhs < c.RHS-tol {
				return false
			}
		case EQ:
			if math.Abs(lhs-c.RHS) > tol {
				return false
			}
		}
	}
	return true
}

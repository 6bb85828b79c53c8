package lp

import (
	"math"
	"math/rand"
	"testing"
)

// buildOracle is the tableau build as it was before the rows shared one
// backing array: a slice per row, a separate basis and a separate
// operator slice, all on the heap. Solve must pivot exactly as it did.
func buildOracle(p *Problem) (*tableau, int) {
	n := p.NumVars()
	m := p.NumConstraints()

	ops := make([]Op, m)
	nSlack, nArt := 0, 0
	for i, c := range p.Constraints {
		op := c.Op
		if c.RHS < 0 {
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		ops[i] = op
		switch op {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}

	total := n + nSlack + nArt
	t := &tableau{
		rows:  make([][]float64, m+1),
		basis: make([]int, m),
		m:     m,
		total: total,
	}
	for i := range t.rows {
		t.rows[i] = make([]float64, total+1)
	}

	slackAt, artAt := n, n+nSlack
	for i, c := range p.Constraints {
		row := t.rows[i]
		copy(row, c.Coeffs)
		row[total] = c.RHS
		if c.RHS < 0 {
			for j := range c.Coeffs {
				row[j] = -row[j]
			}
			row[total] = -c.RHS
		}
		switch ops[i] {
		case LE:
			row[slackAt] = 1
			t.basis[i] = slackAt
			slackAt++
		case GE:
			row[slackAt] = -1
			slackAt++
			row[artAt] = 1
			t.basis[i] = artAt
			artAt++
		case EQ:
			row[artAt] = 1
			t.basis[i] = artAt
			artAt++
		}
	}

	if nArt > 0 {
		obj := t.rows[m]
		for j := n + nSlack; j < total; j++ {
			obj[j] = -1
		}
		for i := 0; i < m; i++ {
			if t.basis[i] >= n+nSlack {
				addRow(obj, t.rows[i], 1)
			}
		}
	} else {
		t.setObjective(p.Objective)
	}
	return t, nArt
}

// solveOracle is Solve over buildOracle's tableau.
func solveOracle(p *Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{Status: Infeasible}, err
	}
	n := p.NumVars()
	m := p.NumConstraints()
	maxIter := p.MaxIter
	if maxIter <= 0 {
		maxIter = 100 * (n + m + 10)
	}
	t, nArt := buildOracle(p)
	iters := 0
	if nArt > 0 {
		st, it := t.iterate(maxIter)
		iters += it
		if st == IterationLimit {
			return Solution{Status: IterationLimit, Iterations: iters}, nil
		}
		if t.rows[t.m][t.total] > 1e-7 {
			return Solution{Status: Infeasible, Iterations: iters}, nil
		}
		t.dropArtificials(nArt)
		t.setObjective(p.Objective)
	}
	st, it := t.iterate(maxIter - iters)
	iters += it
	sol := Solution{Status: st, Iterations: iters}
	if st == Optimal || st == IterationLimit {
		sol.X = t.extract(n)
		sol.Objective = p.Value(sol.X)
	}
	return sol, nil
}

// randomMixedProblem draws an LP of up to 8 variables and 24 rows, so
// both Solve's stack scratch and its heap fallback run. Rows mix LE, GE
// and EQ with coefficients of either sign, so right-hand sides come out
// negative as often as not. Every row holds at a random point x0 ≥ 0,
// tightly in a third of them (degenerate); some rows repeat an earlier
// one scaled (redundant), a fifth of the problems get one row that
// contradicts another (infeasible), and an objective no row bounds is
// unbounded.
func randomMixedProblem(rng *rand.Rand) *Problem {
	n := 1 + rng.Intn(8)
	m := 1 + rng.Intn(24)
	x0 := make([]float64, n)
	for j := range x0 {
		if rng.Intn(3) > 0 {
			x0[j] = math.Round(rng.Float64()*5*100) / 100
		}
	}
	p := &Problem{Objective: make([]float64, n)}
	for j := range p.Objective {
		p.Objective[j] = math.Round((rng.Float64()*10-3)*100) / 100
	}
	for i := 0; i < m; i++ {
		if i > 0 && rng.Intn(8) == 0 {
			prev := p.Constraints[rng.Intn(i)]
			scale := float64(1 + rng.Intn(3))
			c := Constraint{Coeffs: make([]float64, n), Op: prev.Op, RHS: prev.RHS * scale}
			for j, v := range prev.Coeffs {
				c.Coeffs[j] = v * scale
			}
			p.Constraints = append(p.Constraints, c)
			continue
		}
		c := Constraint{Coeffs: make([]float64, n), Op: LE}
		switch rng.Intn(10) {
		case 0, 1:
			c.Op = GE
		case 2:
			c.Op = EQ
		}
		for j := range c.Coeffs {
			if rng.Intn(4) > 0 {
				c.Coeffs[j] = math.Round((rng.Float64()*6-2)*100) / 100
			}
		}
		slack := 0.0
		if rng.Intn(3) > 0 {
			slack = math.Round(rng.Float64()*5*100) / 100
		}
		c.RHS = dot(c.Coeffs, x0)
		switch c.Op {
		case LE:
			c.RHS += slack
		case GE:
			c.RHS -= slack
		}
		p.Constraints = append(p.Constraints, c)
	}
	if rng.Intn(5) == 0 {
		c := p.Constraints[rng.Intn(m)]
		bad := Constraint{Coeffs: c.Coeffs, Op: EQ, RHS: c.RHS + 1}
		switch c.Op {
		case LE:
			bad.Op = GE
		case GE:
			bad.Op, bad.RHS = LE, c.RHS-1
		}
		p.Constraints = append(p.Constraints, bad)
	}
	if rng.Intn(6) == 0 {
		p.MaxIter = 1 + rng.Intn(4)
	}
	return p
}

// reapProblem is the allocation LP the core hook solves for n design
// points: maximize Σ wᵢtᵢ subject to Σtᵢ + t_off = tp and
// Σ Pᵢtᵢ + POff·t_off ≤ budget.
func reapProblem(rng *rand.Rand, n int, budget float64) *Problem {
	const tp, pOff = 3600.0, 50e-6
	obj := make([]float64, n+1)
	timeRow := make([]float64, n+1)
	energyRow := make([]float64, n+1)
	for i := 0; i < n; i++ {
		obj[i] = 0.5 + 0.45*rng.Float64()
		timeRow[i] = 1
		energyRow[i] = 1e-3 + 2e-3*rng.Float64()
	}
	timeRow[n] = 1
	energyRow[n] = pOff
	return &Problem{
		Objective: obj,
		Constraints: []Constraint{
			{Coeffs: timeRow, Op: EQ, RHS: tp},
			{Coeffs: energyRow, Op: LE, RHS: budget},
		},
	}
}

// sameSolution reports whether two solutions match bit for bit.
func sameSolution(a, b Solution) bool {
	if a.Status != b.Status || a.Iterations != b.Iterations ||
		math.Float64bits(a.Objective) != math.Float64bits(b.Objective) || len(a.X) != len(b.X) {
		return false
	}
	for j := range a.X {
		if math.Float64bits(a.X[j]) != math.Float64bits(b.X[j]) {
			return false
		}
	}
	return true
}

// TestSolveMatchesOracleBuild: Solve's one-array tableau pivots through
// the same bases as the per-row build, so its status, pivot count,
// objective and solution are bit-identical on random mixed problems of
// every outcome and on the REAP LP at 5 and 100 design points.
func TestSolveMatchesOracleBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var problems []*Problem
	for trial := 0; trial < 3000; trial++ {
		problems = append(problems, randomMixedProblem(rng))
	}
	for _, n := range []int{5, 100} {
		for _, budget := range []float64{0, 0.1, 0.18, 0.5, 1, 2.5, 5, 8, 11, 20} {
			problems = append(problems, reapProblem(rng, n, budget))
		}
	}
	seen := map[Status]int{}
	for i, p := range problems {
		got, gotErr := Solve(p)
		want, wantErr := solveOracle(p)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("problem %d: error %v, oracle %v", i, gotErr, wantErr)
		}
		if !sameSolution(got, want) {
			t.Fatalf("problem %d: Solve %+v, oracle %+v\n%+v", i, got, want, p)
		}
		seen[got.Status]++
	}
	for _, st := range []Status{Optimal, Infeasible, Unbounded, IterationLimit} {
		if seen[st] == 0 {
			t.Errorf("no problem ended %v (outcomes %v)", st, seen)
		}
	}
}

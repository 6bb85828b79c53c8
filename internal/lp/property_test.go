package lp

import (
	"math"
	"math/rand"
	"testing"
)

// bruteForce solves a small LP by enumerating all basic solutions: every
// subset of constraints taken as tight, solved as a linear system, filtered
// for feasibility. It is exponential and only valid for tiny instances, but
// it is an independent oracle for the simplex implementation.
//
// It returns (bestX, found). Unbounded problems return found=false along
// with unbounded=true.
func bruteForce(p *Problem) (best []float64, bestVal float64, found bool) {
	n := len(p.Objective)

	// Collect all hyperplanes: constraint rows (as equalities when tight)
	// plus the axis planes x_j = 0.
	type plane struct {
		coeffs []float64
		rhs    float64
	}
	var planes []plane
	for _, c := range p.Constraints {
		planes = append(planes, plane{c.Coeffs, c.RHS})
	}
	for j := 0; j < n; j++ {
		axis := make([]float64, n)
		axis[j] = 1
		planes = append(planes, plane{axis, 0})
	}

	bestVal = math.Inf(-1)
	idx := make([]int, n)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == n {
			// Solve the n×n system of the chosen tight planes.
			a := make([][]float64, n)
			for i := 0; i < n; i++ {
				a[i] = append(append([]float64(nil), planes[idx[i]].coeffs...), planes[idx[i]].rhs)
			}
			x, ok := gauss(a, n)
			if !ok {
				return
			}
			if !feasible(p, x, 1e-6) {
				return
			}
			v := p.Value(x)
			if v > bestVal {
				bestVal = v
				best = append([]float64(nil), x...)
				found = true
			}
			return
		}
		for i := start; i < len(planes); i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return best, bestVal, found
}

// gauss solves an n×n augmented system with partial pivoting.
func gauss(a [][]float64, n int) ([]float64, bool) {
	for col := 0; col < n; col++ {
		piv := -1
		max := 1e-9
		for r := col; r < n; r++ {
			if v := math.Abs(a[r][col]); v > max {
				max = v
				piv = r
			}
		}
		if piv < 0 {
			return nil, false
		}
		a[col], a[piv] = a[piv], a[col]
		inv := 1 / a[col][col]
		for j := col; j <= n; j++ {
			a[col][j] *= inv
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r][col]
			if f == 0 {
				continue
			}
			for j := col; j <= n; j++ {
				a[r][j] -= f * a[col][j]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = a[i][n]
	}
	return x, true
}

// randomBoundedProblem generates an LP that is guaranteed feasible (origin
// is feasible) and bounded (a box constraint on every variable).
func randomBoundedProblem(rng *rand.Rand, n int) *Problem {
	m := 1 + rng.Intn(3)
	p := &Problem{Objective: make([]float64, n)}
	for j := range p.Objective {
		p.Objective[j] = math.Round((rng.Float64()*10-3)*100) / 100
	}
	for i := 0; i < m; i++ {
		c := Constraint{Coeffs: make([]float64, n), Op: LE, RHS: rng.Float64() * 10}
		for j := range c.Coeffs {
			c.Coeffs[j] = math.Round(rng.Float64()*5*100) / 100 // non-negative keeps origin feasible
		}
		p.Constraints = append(p.Constraints, c)
	}
	// Box to guarantee boundedness.
	for j := 0; j < n; j++ {
		row := make([]float64, n)
		row[j] = 1
		p.Constraints = append(p.Constraints, Constraint{Coeffs: row, Op: LE, RHS: 5 + rng.Float64()*10})
	}
	return p
}

func TestPropertySimplexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(2) // 2 or 3 variables keeps brute force tractable
		p := randomBoundedProblem(rng, n)
		sol, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: error %v\n%+v", trial, err, p)
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v, want optimal\n%+v", trial, sol.Status, p)
		}
		if !feasible(p, sol.X, 1e-6) {
			t.Fatalf("trial %d: infeasible solution %v\n%+v", trial, sol.X, p)
		}
		_, bestVal, found := bruteForce(p)
		if !found {
			t.Fatalf("trial %d: brute force found nothing\n%+v", trial, p)
		}
		if math.Abs(sol.Objective-bestVal) > 1e-5*(1+math.Abs(bestVal)) {
			t.Fatalf("trial %d: simplex %v != brute force %v\n%+v",
				trial, sol.Objective, bestVal, p)
		}
	}
}

func TestPropertyEqualityProblems(t *testing.T) {
	// Random transportation-flavoured problems with an equality row:
	// sum x_j = T plus random LE rows. Compare to brute force.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(2)
		p := &Problem{Objective: make([]float64, n)}
		for j := range p.Objective {
			p.Objective[j] = rng.Float64()*4 - 1
		}
		total := 1 + rng.Float64()*9
		all := make([]float64, n)
		for j := range all {
			all[j] = 1
		}
		p.Constraints = append(p.Constraints, Constraint{Coeffs: all, Op: EQ, RHS: total})
		row := make([]float64, n)
		for j := range row {
			row[j] = rng.Float64() * 3
		}
		p.Constraints = append(p.Constraints, Constraint{Coeffs: row, Op: LE, RHS: rng.Float64()*20 + total*3})

		sol, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		bx, bv, found := bruteForce(p)
		if sol.Status == Infeasible {
			if found {
				t.Fatalf("trial %d: simplex infeasible but brute force found %v (val %v)\n%+v",
					trial, bx, bv, p)
			}
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v\n%+v", trial, sol.Status, p)
		}
		if !found {
			t.Fatalf("trial %d: simplex optimal %v but brute force infeasible\n%+v", trial, sol.X, p)
		}
		if math.Abs(sol.Objective-bv) > 1e-5*(1+math.Abs(bv)) {
			t.Fatalf("trial %d: simplex %v != brute force %v\n%+v", trial, sol.Objective, bv, p)
		}
	}
}

func TestPropertySolutionSupport(t *testing.T) {
	// A basic optimal solution has at most (number of constraints) nonzero
	// variables. For REAP-shaped problems (2 constraints) this is the
	// "at most two design points are mixed" structural fact the runtime
	// relies on.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(8)
		obj := make([]float64, n)
		timeRow := make([]float64, n)
		energyRow := make([]float64, n)
		for j := 0; j < n; j++ {
			obj[j] = rng.Float64()
			timeRow[j] = 1
			energyRow[j] = 0.1 + rng.Float64()*3
		}
		tp := 3600.0
		budget := energyRow[rng.Intn(n)] * tp * (0.3 + rng.Float64()*0.7)
		p := &Problem{
			Objective: obj,
			Constraints: []Constraint{
				{Coeffs: timeRow, Op: LE, RHS: tp},
				{Coeffs: energyRow, Op: LE, RHS: budget},
			},
		}
		sol, err := Solve(p)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("trial %d: err=%v status=%v", trial, err, sol.Status)
		}
		nonzero := 0
		for _, v := range sol.X {
			if v > 1e-7 {
				nonzero++
			}
		}
		if nonzero > 2 {
			t.Fatalf("trial %d: %d nonzero variables in a 2-constraint LP solution %v",
				trial, nonzero, sol.X)
		}
	}
}

func TestPropertyScaleInvariance(t *testing.T) {
	// Scaling the objective by a positive constant must not change the
	// argmax (up to degeneracy the same objective ratio holds).
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		p := randomBoundedProblem(rng, 3)
		s1, err := Solve(p)
		if err != nil || s1.Status != Optimal {
			t.Fatalf("trial %d: err=%v status=%v", trial, err, s1.Status)
		}
		scaled := &Problem{
			Objective:   append([]float64(nil), p.Objective...),
			Constraints: p.Constraints,
		}
		const k = 7.5
		for j := range scaled.Objective {
			scaled.Objective[j] *= k
		}
		s2, err := Solve(scaled)
		if err != nil || s2.Status != Optimal {
			t.Fatalf("trial %d: scaled err=%v status=%v", trial, err, s2.Status)
		}
		if math.Abs(s2.Objective-k*s1.Objective) > 1e-5*(1+math.Abs(k*s1.Objective)) {
			t.Fatalf("trial %d: scaled objective %v, want %v", trial, s2.Objective, k*s1.Objective)
		}
	}
}

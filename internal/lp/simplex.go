package lp

import (
	"math"

	"repro/internal/fpx"
)

// tableau is the dense simplex tableau used by both phases.
//
// Layout: rows[0..m-1] are the constraint rows, rows[m] is the objective
// row. Columns 0..total-1 are variables (original, then slack/surplus, then
// artificial); column total is the right-hand side.
//
// The objective row stores reduced costs in the convention where a column
// with a POSITIVE entry improves the (maximization) objective, matching the
// paper's Algorithm 1 ("find the column with the largest value in the last
// row"; terminate when all entries are non-positive).
type tableau struct {
	rows  [][]float64
	basis []int // basis[i] = variable index basic in row i
	m     int   // number of constraint rows
	total int   // number of variable columns
}

// stackRows sizes Solve's scratch arrays: for a problem of up to this
// many constraints the row headers and the basis stay on the stack, so
// a solve allocates only the tableau's one backing array and the
// solution.
const stackRows = 16

// Solve runs the two-phase simplex method on p.
func Solve(p *Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{Status: Infeasible}, err
	}
	n := p.NumVars()
	m := p.NumConstraints()
	maxIter := p.MaxIter
	if maxIter <= 0 {
		maxIter = 100 * (n + m + 10)
	}

	var rowsBuf [stackRows + 1][]float64
	var basisBuf [stackRows]int
	var rows [][]float64
	var basis []int
	if m <= stackRows {
		rows, basis = rowsBuf[:m+1], basisBuf[:m]
	} else {
		rows, basis = make([][]float64, m+1), make([]int, m)
	}
	t, nArt := build(p, rows, basis)
	iters := 0

	// Phase 1: drive artificial variables to zero, if any were needed.
	if nArt > 0 {
		st, it := t.iterate(maxIter)
		iters += it
		if st == IterationLimit {
			return Solution{Status: IterationLimit, Iterations: iters}, nil
		}
		// With the c−z reduced-cost convention the phase-1 objective row
		// RHS equals the current sum of artificial variables; the problem
		// is feasible iff that sum is (numerically) zero at optimality.
		if t.rows[t.m][t.total] > 1e-7 {
			return Solution{Status: Infeasible, Iterations: iters}, nil
		}
		t.dropArtificials(nArt)
		t.setObjective(p.Objective)
	}

	// Phase 2: optimize the true objective.
	st, it := t.iterate(maxIter - iters)
	iters += it
	sol := Solution{Status: st, Iterations: iters}
	if st == Optimal || st == IterationLimit {
		sol.X = t.extract(n)
		sol.Objective = p.Value(sol.X)
	}
	return sol, nil
}

// rowOp is the operator of constraint c once a negative right-hand side
// is negated (LE and GE swap), so the starting basis is non-negative.
func rowOp(c Constraint) Op {
	if c.RHS < 0 {
		switch c.Op {
		case LE:
			return GE
		case GE:
			return LE
		}
	}
	return c.Op
}

// build constructs the initial tableau into rows (m+1 headers) and basis
// (m entries), adding slack, surplus and artificial columns as required,
// and returns it along with the artificial count. Every row, the
// objective's included, is a window of one backing array.
func build(p *Problem, rows [][]float64, basis []int) (tableau, int) {
	n := p.NumVars()
	m := p.NumConstraints()

	nSlack, nArt := 0, 0
	for _, c := range p.Constraints {
		switch rowOp(c) {
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
	w := total + 1
	cells := make([]float64, (m+1)*w)
	for i := range rows {
		rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
	}
	t := tableau{rows: rows, basis: basis, m: m, total: total}

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
		switch rowOp(c) {
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

// setObjective installs a fresh phase-2 objective row for the current basis:
// the row is initialized to the raw costs and then each basic column is
// eliminated so reduced costs are expressed in the current basis.
func (t *tableau) setObjective(c []float64) {
	obj := t.rows[t.m]
	for j := range obj {
		obj[j] = 0
	}
	copy(obj, c)
	for i := 0; i < t.m; i++ {
		b := t.basis[i]
		if b >= 0 && b < len(obj)-1 && !fpx.Zero(obj[b]) {
			addRow(obj, t.rows[i], -obj[b])
		}
	}
}

// dropArtificials removes artificial columns after phase 1. Any artificial
// variable still basic (at zero, by feasibility) is pivoted out first; a row
// whose coefficients are all zero is redundant and is zeroed in place.
func (t *tableau) dropArtificials(nArt int) {
	firstArt := t.total - nArt
	for i := 0; i < t.m; i++ {
		if t.basis[i] < firstArt {
			continue
		}
		// Degenerate basic artificial: pivot in any non-artificial
		// column with a nonzero coefficient in this row.
		pivoted := false
		for j := 0; j < firstArt; j++ {
			if math.Abs(t.rows[i][j]) > eps {
				t.pivot(i, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant constraint row: clear it so it can never be
			// selected as a pivot row.
			for j := range t.rows[i] {
				t.rows[i][j] = 0
			}
			t.basis[i] = -1
		}
	}
	// Truncate artificial columns.
	for i := range t.rows {
		row := t.rows[i]
		row[firstArt] = row[t.total] // move RHS left
		t.rows[i] = row[:firstArt+1]
	}
	t.total = firstArt
}

// iterate performs simplex pivots until optimality, unboundedness or the
// iteration budget is exhausted. It uses Bland's rule (lowest eligible
// index) for both the entering and leaving variable, which guarantees
// termination on degenerate tableaus.
func (t *tableau) iterate(maxIter int) (Status, int) {
	obj := t.rows[t.m]
	for iter := 0; ; iter++ {
		if iter >= maxIter {
			return IterationLimit, iter
		}
		// Entering column: Bland's rule over positive reduced costs.
		col := -1
		for j := 0; j < t.total; j++ {
			if obj[j] > eps {
				col = j
				break
			}
		}
		if col < 0 {
			return Optimal, iter
		}
		// Leaving row: minimum ratio test, ties broken by lowest basis
		// index (Bland).
		row := -1
		best := math.Inf(1)
		for i := 0; i < t.m; i++ {
			a := t.rows[i][col]
			if a <= eps {
				continue
			}
			ratio := t.rows[i][t.total] / a
			if ratio < best-eps || (ratio < best+eps && (row < 0 || t.basis[i] < t.basis[row])) {
				best = ratio
				row = i
			}
		}
		if row < 0 {
			return Unbounded, iter
		}
		t.pivot(row, col)
	}
}

// pivot makes column col basic in row row.
func (t *tableau) pivot(row, col int) {
	pr := t.rows[row]
	inv := 1 / pr[col]
	for j := range pr {
		pr[j] *= inv
	}
	pr[col] = 1 // avoid drift
	for i := range t.rows {
		if i == row {
			continue
		}
		f := t.rows[i][col]
		if fpx.Zero(f) {
			continue
		}
		addRow(t.rows[i], pr, -f)
		t.rows[i][col] = 0
	}
	t.basis[row] = col
}

// extract reads the values of the first n (original) variables from the
// tableau, clamping tiny negatives introduced by floating-point error.
func (t *tableau) extract(n int) []float64 {
	x := make([]float64, n)
	for i := 0; i < t.m; i++ {
		b := t.basis[i]
		if b >= 0 && b < n {
			v := t.rows[i][t.total]
			if v < 0 && v > -1e-7 {
				v = 0
			}
			x[b] = v
		}
	}
	return x
}

// addRow computes dst += f*src element-wise.
func addRow(dst, src []float64, f float64) {
	for j := range dst {
		dst[j] += f * src[j]
	}
}

package eval

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fpx"
)

// AlphaGridCell is J*(budget, α) with the winning static design point.
type AlphaGridCell struct {
	Alpha      float64
	BudgetJ    float64
	REAPJ      float64
	BestStatic string
	BestRatio  float64 // best static J / REAP J
}

// AlphaGridResult maps the α-budget plane of Section 5.3: at every point
// REAP dominates, and the identity of the best static design point shifts
// from the cheap end (low α, low budget) to DP1 (high α, high budget).
type AlphaGridResult struct {
	Alphas  []float64
	Budgets []float64
	Cells   []AlphaGridCell
}

// AlphaGrid evaluates the standard α sweep against representative budgets.
func AlphaGrid(cfg core.Config) (*AlphaGridResult, error) {
	res := &AlphaGridResult{
		Alphas:  []float64{0.5, 1, 2, 4, 8},
		Budgets: []float64{2, 4, 6, 8, 9.9},
	}
	for _, alpha := range res.Alphas {
		c := cfg
		c.Alpha = alpha
		plan, err := core.NewPlan(c)
		if err != nil {
			return nil, err
		}
		for _, budget := range res.Budgets {
			alloc, err := plan.Solve(budget)
			if err != nil {
				return nil, err
			}
			cell := AlphaGridCell{Alpha: alpha, BudgetJ: budget, REAPJ: alloc.Objective(c)}
			for i := range c.DPs {
				j := core.StaticObjective(c, i, budget)
				if cell.REAPJ > 0 && j/cell.REAPJ > cell.BestRatio {
					cell.BestRatio = j / cell.REAPJ
					cell.BestStatic = c.DPs[i].Name
				}
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// Cell returns the grid cell for (alpha, budget).
func (r *AlphaGridResult) Cell(alpha, budget float64) (AlphaGridCell, bool) {
	for _, c := range r.Cells {
		if fpx.Eq(c.Alpha, alpha) && fpx.Eq(c.BudgetJ, budget) {
			return c, true
		}
	}
	return AlphaGridCell{}, false
}

// Render prints the grid: per cell the best static point and how close it
// gets to REAP.
func (r *AlphaGridResult) Render() string {
	t := &table{header: []string{"alpha\\budget"}}
	for _, b := range r.Budgets {
		t.header = append(t.header, fmt.Sprintf("%.1fJ", b))
	}
	for _, alpha := range r.Alphas {
		row := []string{fmt.Sprintf("%g", alpha)}
		for _, b := range r.Budgets {
			c, _ := r.Cell(alpha, b)
			row = append(row, fmt.Sprintf("%s %.2f", c.BestStatic, c.BestRatio))
		}
		t.add(row...)
	}
	return "Alpha-budget grid: best static design point and its J relative to REAP\n" + t.String()
}

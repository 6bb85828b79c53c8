package eval

import (
	"fmt"

	"repro/internal/core"
)

// Figure6Point is one budget sample of the α=2 objective comparison.
type Figure6Point struct {
	BudgetJ float64
	// REAPJ is the optimal objective value.
	REAPJ float64
	// DPNormalized is each static design point's J(t) divided by REAP's
	// (≤ 1 everywhere, the paper's Figure 6 y-axis).
	DPNormalized []float64
}

// Figure6Result is the α=2 sweep of Figure 6.
type Figure6Result struct {
	Cfg    core.Config
	Alpha  float64
	Points []Figure6Point
}

// Figure6 sweeps the budget at α=2 and normalizes every static design
// point's objective by REAP's.
func Figure6(cfg core.Config, step float64) (*Figure6Result, error) {
	return FigureAlpha(cfg, 2, step)
}

// FigureAlpha generalizes Figure 6 to any α (the paper's Section 5.3
// notes the DP5 gap widens as α grows; this lets tests check that).
func FigureAlpha(cfg core.Config, alpha, step float64) (*Figure6Result, error) {
	if step <= 0 {
		step = 0.1
	}
	cfg.Alpha = alpha
	plan, err := core.NewPlan(cfg)
	if err != nil {
		return nil, err
	}
	res := &Figure6Result{Cfg: cfg, Alpha: alpha}
	max := cfg.MaxUsefulBudget() * 1.08
	for budget := cfg.MinBudget() + 1e-9; budget <= max; budget += step {
		alloc, err := plan.Solve(budget)
		if err != nil {
			return nil, err
		}
		p := Figure6Point{BudgetJ: budget, REAPJ: alloc.Objective(cfg)}
		for i := range cfg.DPs {
			dpJ := core.StaticObjective(cfg, i, budget)
			norm := 0.0
			if p.REAPJ > 0 {
				norm = dpJ / p.REAPJ
			}
			p.DPNormalized = append(p.DPNormalized, norm)
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// Render prints the normalized-performance series.
func (r *Figure6Result) Render() string {
	t := &table{header: []string{"budget(J)", "REAP J"}}
	for i := range r.Cfg.DPs {
		t.header = append(t.header, fmt.Sprintf("DP%d/REAP", i+1))
	}
	for _, p := range r.Points {
		row := []string{f2(p.BudgetJ), f3(p.REAPJ)}
		for _, v := range p.DPNormalized {
			row = append(row, f2(v))
		}
		t.add(row...)
	}
	return fmt.Sprintf("Figure 6: static design point J(t) normalized to REAP, alpha=%g\n", r.Alpha) +
		t.String()
}

package eval

import (
	"fmt"

	"repro/internal/core"
)

// SweepPoint is one budget sample of the Figure 5 energy sweep.
type SweepPoint struct {
	BudgetJ float64
	Region  core.Region
	// REAPAccuracyPct and REAPActiveFrac evaluate the optimal allocation.
	REAPAccuracyPct float64
	REAPActiveFrac  float64
	// DPAccuracyPct and DPActiveFrac evaluate each static design point.
	DPAccuracyPct []float64
	DPActiveFrac  []float64
	// Mix is the REAP time share per design point (plus off), summing
	// to 1 with the off share.
	Mix []float64
	Off float64
}

// Figure5Result holds the sweep behind Figures 5(a) and 5(b).
type Figure5Result struct {
	Cfg    core.Config
	Points []SweepPoint
}

// Figure5 sweeps the allocated energy from the idle floor to past DP1
// saturation with α = 1, evaluating REAP and the static design points —
// the content of Figure 5(a) (expected accuracy) and 5(b) (active time
// normalized to REAP).
func Figure5(cfg core.Config, step float64) (*Figure5Result, error) {
	if step <= 0 {
		step = 0.1
	}
	cfg.Alpha = 1
	plan, err := core.NewPlan(cfg)
	if err != nil {
		return nil, err
	}
	res := &Figure5Result{Cfg: cfg}
	max := cfg.MaxUsefulBudget() * 1.08
	for budget := cfg.MinBudget(); budget <= max; budget += step {
		alloc, err := plan.Solve(budget)
		if err != nil {
			return nil, err
		}
		p := SweepPoint{
			BudgetJ:         budget,
			Region:          core.Classify(cfg, budget),
			REAPAccuracyPct: 100 * alloc.ExpectedAccuracy(cfg),
			REAPActiveFrac:  alloc.ActiveTime() / cfg.Period,
			Off:             alloc.Off / cfg.Period,
		}
		for i := range cfg.DPs {
			p.Mix = append(p.Mix, alloc.Active[i]/cfg.Period)
			s := core.StaticAllocation(cfg, i, budget)
			p.DPAccuracyPct = append(p.DPAccuracyPct, 100*s.ExpectedAccuracy(cfg))
			p.DPActiveFrac = append(p.DPActiveFrac, s.ActiveTime()/cfg.Period)
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// Render prints the two series of Figure 5: expected accuracy and active
// time (the latter normalized to REAP, as the paper plots it).
func (r *Figure5Result) Render() string {
	ta := &table{header: []string{"budget(J)", "region", "REAP"}}
	for i := range r.Cfg.DPs {
		ta.header = append(ta.header, fmt.Sprintf("DP%d", i+1))
	}
	tb := &table{header: append([]string{}, ta.header...)}
	for _, p := range r.Points {
		rowA := []string{f2(p.BudgetJ), p.Region.String(), f1(p.REAPAccuracyPct)}
		rowB := []string{f2(p.BudgetJ), p.Region.String(), "1.00"}
		for i := range r.Cfg.DPs {
			rowA = append(rowA, f1(p.DPAccuracyPct[i]))
			norm := 0.0
			if p.REAPActiveFrac > 0 {
				norm = p.DPActiveFrac[i] / p.REAPActiveFrac
			}
			rowB = append(rowB, f2(norm))
		}
		ta.add(rowA...)
		tb.add(rowB...)
	}
	return "Figure 5(a): expected accuracy (%) vs allocated energy, alpha=1\n" + ta.String() +
		"\nFigure 5(b): active time normalized to REAP\n" + tb.String()
}

package eval

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
)

// AblationRow compares REAP restricted to a subset of design points over
// the solar month, quantifying the claim of Section 2 that on/off-only
// power management (a single design point duty-cycled against off) is
// sub-optimal, and measuring how much each additional Pareto point buys.
type AblationRow struct {
	Name string
	// DPIndices are the design points available to the policy.
	DPIndices []int
	// MeanJ is the month's mean objective (α=1).
	MeanJ float64
	// RelativeToFull is MeanJ divided by the full five-point REAP.
	RelativeToFull float64
}

// AblationResult is the design-point-availability ablation.
type AblationResult struct {
	Rows []AblationRow
}

// Ablation runs REAP over an hourly budget trace (the experiments
// command passes the September month) with progressively richer
// design-point sets.
func Ablation(cfg core.Config, budgets []float64) (*AblationResult, error) {
	cfg.Alpha = 1
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cases := []AblationRow{
		{Name: "on/off DP1 only (prior-work baseline)", DPIndices: []int{0}},
		{Name: "on/off DP5 only", DPIndices: []int{len(cfg.DPs) - 1}},
		{Name: "extremes DP1+DP5", DPIndices: []int{0, len(cfg.DPs) - 1}},
		{Name: "odd points DP1+DP3+DP5", DPIndices: []int{0, 2, 4}},
		{Name: "full Pareto set (REAP)", DPIndices: []int{0, 1, 2, 3, 4}},
	}
	res := &AblationResult{}
	var fullJ float64
	for _, c := range cases {
		sub := core.Config{Period: cfg.Period, POff: cfg.POff, Alpha: cfg.Alpha}
		for _, i := range c.DPIndices {
			if i < 0 || i >= len(cfg.DPs) {
				return nil, fmt.Errorf("eval: ablation index %d out of range", i)
			}
			sub.DPs = append(sub.DPs, cfg.DPs[i])
		}
		run, err := device.Replay(sub, budgets, nil)
		if err != nil {
			return nil, err
		}
		c.MeanJ = run.MeanObjective()
		res.Rows = append(res.Rows, c)
		fullJ = c.MeanJ // last case is the full set
	}
	for i := range res.Rows {
		if fullJ > 0 {
			res.Rows[i].RelativeToFull = res.Rows[i].MeanJ / fullJ
		}
	}
	return res, nil
}

// Render prints the ablation grid.
func (r *AblationResult) Render() string {
	t := &table{header: []string{"design point set", "mean J", "vs full REAP"}}
	for _, row := range r.Rows {
		t.add(row.Name, f3(row.MeanJ), f2(row.RelativeToFull))
	}
	return "Ablation: value of the multi-design-point set over the solar month (alpha=1)\n" + t.String()
}

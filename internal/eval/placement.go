package eval

import (
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/solar"
)

// PlacementRow is one harvesting-exposure level: how a wearer's habits
// (outdoor worker vs office worker vs cell under a sleeve) scale the
// harvest, and what that does to REAP and the static baselines.
type PlacementRow struct {
	Label       string
	Exposure    float64
	HarvestJ    float64
	REAPMeanAcc float64
	DP1MeanAcc  float64
	DP5MeanAcc  float64
	REAPOverDP1 float64
	REAPOverDP5 float64
}

// PlacementResult is the exposure-sensitivity experiment: the paper's
// single prototype fixes one harvesting scale; this sweep shows REAP's
// advantage across the realistic range of cell placements.
type PlacementResult struct {
	Rows []PlacementRow
}

// Placement sweeps the cell exposure factor over September (α=1).
func Placement(cfg core.Config) (*PlacementResult, error) {
	cfg.Alpha = 1
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cases := []struct {
		label    string
		exposure float64
	}{
		{"sleeve-covered (0.4x)", 0.014},
		{"office worker (0.7x)", 0.0245},
		{"baseline (1x)", 0.035},
		{"outdoor worker (1.6x)", 0.056},
		{"panel-on-hat (2.5x)", 0.0875},
	}
	res := &PlacementResult{}
	for _, c := range cases {
		cell := solar.DefaultCell()
		cell.Exposure = c.exposure
		tr, err := solar.MonthlyTrace(9, 2015, cell)
		if err != nil {
			return nil, err
		}
		budgets := solar.GreedyAllocator{}.Budgets(tr.Hours)
		reap, err := device.Replay(cfg, budgets, nil)
		if err != nil {
			return nil, err
		}
		dp1, err := device.Replay(cfg, budgets, device.Static(0))
		if err != nil {
			return nil, err
		}
		dp5, err := device.Replay(cfg, budgets, device.Static(len(cfg.DPs)-1))
		if err != nil {
			return nil, err
		}
		row := PlacementRow{
			Label:       c.label,
			Exposure:    c.exposure,
			HarvestJ:    tr.Total(),
			REAPMeanAcc: reap.MeanExpectedAccuracy(),
			DP1MeanAcc:  dp1.MeanExpectedAccuracy(),
			DP5MeanAcc:  dp5.MeanExpectedAccuracy(),
		}
		if row.DP1MeanAcc > 0 {
			row.REAPOverDP1 = row.REAPMeanAcc / row.DP1MeanAcc
		}
		if row.DP5MeanAcc > 0 {
			row.REAPOverDP5 = row.REAPMeanAcc / row.DP5MeanAcc
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the placement grid.
func (r *PlacementResult) Render() string {
	t := &table{header: []string{
		"placement", "harvest(J)", "REAP E{a}", "DP1 E{a}", "DP5 E{a}", "REAP/DP1", "REAP/DP5",
	}}
	for _, row := range r.Rows {
		t.add(row.Label, f1(row.HarvestJ), f3(row.REAPMeanAcc),
			f3(row.DP1MeanAcc), f3(row.DP5MeanAcc), f2(row.REAPOverDP1), f2(row.REAPOverDP5))
	}
	return "Placement sensitivity: cell exposure vs REAP advantage (September, alpha=1)\n" +
		t.String()
}

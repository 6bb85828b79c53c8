package eval

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/solar"
)

// SeasonalRow summarizes one month of the year.
type SeasonalRow struct {
	Month        int
	HarvestJ     float64
	REAPMeanAcc  float64
	DP1MeanAcc   float64
	DP5MeanAcc   float64
	REAPOverDP1  float64
	ActiveHours  float64
	RegionShares [4]float64 // dead, r1, r2, r3 fractions
}

// SeasonalResult sweeps a full year month by month: harvest collapses in
// winter (short days, low sun) and REAP's advantage over the static
// points moves with it — a view the paper's single September cannot show.
type SeasonalResult struct {
	Year int
	Rows []SeasonalRow
}

// Seasonal runs REAP and the DP1/DP5 baselines over every month of the
// year (α=1, greedy budgets).
func Seasonal(cfg core.Config, year int) (*SeasonalResult, error) {
	cfg.Alpha = 1
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &SeasonalResult{Year: year}
	for month := 1; month <= 12; month++ {
		tr, err := solar.MonthlyTrace(month, year, solar.DefaultCell())
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
		row := SeasonalRow{
			Month:       month,
			HarvestJ:    tr.Total(),
			REAPMeanAcc: reap.MeanExpectedAccuracy(),
			DP1MeanAcc:  dp1.MeanExpectedAccuracy(),
			DP5MeanAcc:  dp5.MeanExpectedAccuracy(),
			ActiveHours: reap.TotalActiveTime() / 3600,
		}
		if row.DP1MeanAcc > 0 {
			row.REAPOverDP1 = row.REAPMeanAcc / row.DP1MeanAcc
		}
		for _, h := range reap.Hours {
			row.RegionShares[int(h.Region)]++
		}
		for i := range row.RegionShares {
			row.RegionShares[i] /= float64(len(reap.Hours))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the seasonal grid.
func (r *SeasonalResult) Render() string {
	t := &table{header: []string{
		"month", "harvest(J)", "REAP E{a}", "DP1 E{a}", "DP5 E{a}",
		"REAP/DP1", "active(h)", "dead%", "r1%", "r2%", "r3%",
	}}
	for _, row := range r.Rows {
		t.add(fmt.Sprintf("%02d", row.Month), f1(row.HarvestJ),
			f3(row.REAPMeanAcc), f3(row.DP1MeanAcc), f3(row.DP5MeanAcc),
			f2(row.REAPOverDP1), f1(row.ActiveHours),
			f1(100*row.RegionShares[0]), f1(100*row.RegionShares[1]),
			f1(100*row.RegionShares[2]), f1(100*row.RegionShares[3]))
	}
	return fmt.Sprintf("Seasonal sweep, %d: harvest and REAP advantage across the year\n", r.Year) +
		t.String()
}

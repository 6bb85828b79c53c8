package eval

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/solar"
)

// MultiYearRow summarizes one September's REAP-vs-DP1 improvement at α=1.
type MultiYearRow struct {
	Year          int
	HarvestJ      float64
	MeanRatioDP1  float64
	MeanRatioDP5  float64
	DaylightHours int
}

// MultiYearResult extends Figure 7 across the paper's full measurement
// span (the NREL record of January 2015 – October 2018): each year's
// September gets its own synthetic weather realization.
type MultiYearResult struct {
	Rows []MultiYearRow
}

// MultiYear evaluates Septembers 2015–2018.
func MultiYear(cfg core.Config) (*MultiYearResult, error) {
	res := &MultiYearResult{}
	for year := 2015; year <= 2018; year++ {
		tr, err := solar.MonthlyTrace(9, year, solar.DefaultCell())
		if err != nil {
			return nil, err
		}
		fig, err := Figure7(cfg, tr, []float64{1})
		if err != nil {
			return nil, err
		}
		r1, _ := fig.Ratio("DP1", 1)
		r5, _ := fig.Ratio("DP5", 1)
		res.Rows = append(res.Rows, MultiYearRow{
			Year:          year,
			HarvestJ:      tr.Total(),
			MeanRatioDP1:  r1.Mean,
			MeanRatioDP5:  r5.Mean,
			DaylightHours: tr.DaylightHours(0.18),
		})
	}
	return res, nil
}

// Render prints the multi-year grid.
func (r *MultiYearResult) Render() string {
	t := &table{header: []string{"september", "harvest(J)", "daylight(h)", "REAP/DP1", "REAP/DP5"}}
	for _, row := range r.Rows {
		t.add(fmt.Sprintf("%d", row.Year), f1(row.HarvestJ),
			fmt.Sprintf("%d", row.DaylightHours), f2(row.MeanRatioDP1), f2(row.MeanRatioDP5))
	}
	return "Multi-year case study: REAP improvement across four Septembers (alpha=1)\n" + t.String()
}

package eval

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fpx"
	"repro/internal/solar"
)

// Figure7Ratio summarizes REAP's improvement over one baseline design
// point at one α: the mean and range of per-day performance ratios across
// the month (the paper's error bars are this range).
type Figure7Ratio struct {
	Baseline string
	Alpha    float64
	Mean     float64
	Min      float64
	Max      float64
}

// Figure7Result is the month-long solar case study of Section 5.4.
type Figure7Result struct {
	// Month/Year of the synthetic trace.
	Month, Year int
	// Alphas swept (the paper uses 0.5, 1, 2, 4, 8).
	Alphas []float64
	// Ratios holds one entry per (baseline, alpha).
	Ratios []Figure7Ratio
	// HarvestTotalJ is the month's harvested energy.
	HarvestTotalJ float64
}

// Figure7Baselines are the design points the paper compares against: the
// highest-performance (DP1), best-trade-off (DP3) and lowest-energy (DP5).
var Figure7Baselines = map[string]int{"DP1": 0, "DP3": 2, "DP5": 4}

// Figure7 runs REAP and the baselines over a solar trace for each α in
// alphas; the paper's figure is the September 2015 trace at α = 0.5, 1,
// 2, 4 and 8.
func Figure7(cfg core.Config, tr *solar.Trace, alphas []float64) (*Figure7Result, error) {
	budgets := solar.GreedyAllocator{}.Budgets(tr.Hours)
	res := &Figure7Result{Month: tr.Month, Year: tr.Year, Alphas: alphas, HarvestTotalJ: tr.Total()}
	days := len(tr.Hours) / 24
	for _, alpha := range alphas {
		c := cfg
		c.Alpha = alpha
		reap, err := device.Replay(c, budgets, nil)
		if err != nil {
			return nil, err
		}
		for _, name := range []string{"DP1", "DP3", "DP5"} {
			idx := Figure7Baselines[name]
			static, err := device.Replay(c, budgets, device.Static(idx))
			if err != nil {
				return nil, err
			}
			ratio := Figure7Ratio{Baseline: name, Alpha: alpha, Min: 1e18, Max: -1e18}
			var sum float64
			n := 0
			for d := 0; d < days; d++ {
				var jr, jd float64
				for h := d * 24; h < (d+1)*24; h++ {
					jr += reap.Hours[h].Objective
					jd += static.Hours[h].Objective
				}
				if jd <= 1e-12 {
					continue // fully dark day: ratio undefined
				}
				r := jr / jd
				sum += r
				n++
				if r < ratio.Min {
					ratio.Min = r
				}
				if r > ratio.Max {
					ratio.Max = r
				}
			}
			if n > 0 {
				ratio.Mean = sum / float64(n)
			} else {
				ratio.Min, ratio.Max = 0, 0
			}
			res.Ratios = append(res.Ratios, ratio)
		}
	}
	return res, nil
}

// Ratio returns the summary for a baseline and α.
func (r *Figure7Result) Ratio(baseline string, alpha float64) (Figure7Ratio, bool) {
	for _, x := range r.Ratios {
		if x.Baseline == baseline && fpx.Eq(x.Alpha, alpha) {
			return x, true
		}
	}
	return Figure7Ratio{}, false
}

// Render prints the mean/min/max improvement grid.
func (r *Figure7Result) Render() string {
	t := &table{header: []string{"alpha", "vs", "mean", "min", "max"}}
	for _, x := range r.Ratios {
		t.add(fmt.Sprintf("%g", x.Alpha), x.Baseline, f2(x.Mean), f2(x.Min), f2(x.Max))
	}
	return fmt.Sprintf(
		"Figure 7: REAP performance normalized to DP1/DP3/DP5, synthetic %d-%02d (harvest %.0f J)\n",
		r.Year, r.Month, r.HarvestTotalJ) + t.String()
}

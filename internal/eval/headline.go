package eval

import (
	"fmt"

	"repro/internal/core"
)

// HeadlineResult quantifies the abstract's claims: "46% higher expected
// accuracy and 66% longer active time compared to the highest performance
// design point", the 2.3× Region-1 active-time gain of Figure 5(b), and
// the "22% to 29% higher accuracy than low-power design points" of the
// conclusion.
type HeadlineResult struct {
	// MeanAccuracyGainVsDP1 is the sweep-average of
	// E{a}(REAP)/E{a}(DP1) - 1 over the energy-constrained budgets.
	MeanAccuracyGainVsDP1 float64
	// MaxAccuracyGainVsDP1 is the largest gain in the sweep.
	MaxAccuracyGainVsDP1 float64
	// MeanActiveGainVsDP1 and MaxActiveGainVsDP1 are the analogous
	// active-time gains.
	MeanActiveGainVsDP1 float64
	MaxActiveGainVsDP1  float64
	// Region1ActiveRatioVsDP1 is the largest REAP/DP1 active-time ratio
	// observed inside Region 1 (the paper reports 2.3×).
	Region1ActiveRatioVsDP1 float64
	// AccuracyGainVsDP5 and AccuracyGainVsDP4 are the mean accuracy gains
	// over the low-power points in Region 2, where REAP mixes design
	// points (the paper reports 22–29%).
	AccuracyGainVsDP5 float64
	AccuracyGainVsDP4 float64
}

// Headline computes the headline numbers from an energy sweep over the
// constrained regions (budgets between the idle floor and DP1
// saturation).
func Headline(cfg core.Config) (*HeadlineResult, error) {
	cfg.Alpha = 1
	plan, err := core.NewPlan(cfg)
	if err != nil {
		return nil, err
	}
	res := &HeadlineResult{}
	var accSum, actSum float64
	var accN, actN int
	var dp5Sum float64
	var dp5N int
	var dp4Sum float64
	var dp4N int

	max := cfg.MaxUsefulBudget()
	for budget := 0.3; budget < max; budget += 0.05 {
		alloc, err := plan.Solve(budget)
		if err != nil {
			return nil, err
		}
		reapAcc := alloc.ExpectedAccuracy(cfg)
		reapAct := alloc.ActiveTime()

		dp1 := core.StaticAllocation(cfg, 0, budget)
		if a := dp1.ExpectedAccuracy(cfg); a > 1e-9 {
			g := reapAcc/a - 1
			accSum += g
			accN++
			if g > res.MaxAccuracyGainVsDP1 {
				res.MaxAccuracyGainVsDP1 = g
			}
		}
		if t := dp1.ActiveTime(); t > 1e-9 {
			g := reapAct/t - 1
			actSum += g
			actN++
			if g > res.MaxActiveGainVsDP1 {
				res.MaxActiveGainVsDP1 = g
			}
			if core.Classify(cfg, budget) == core.Region1 && reapAct/t > res.Region1ActiveRatioVsDP1 {
				res.Region1ActiveRatioVsDP1 = reapAct / t
			}
		}
		if core.Classify(cfg, budget) == core.Region2 {
			dp5 := core.StaticAllocation(cfg, len(cfg.DPs)-1, budget)
			if a := dp5.ExpectedAccuracy(cfg); a > 1e-9 {
				dp5Sum += reapAcc/a - 1
				dp5N++
			}
			dp4 := core.StaticAllocation(cfg, len(cfg.DPs)-2, budget)
			if a := dp4.ExpectedAccuracy(cfg); a > 1e-9 {
				dp4Sum += reapAcc/a - 1
				dp4N++
			}
		}
	}
	if accN > 0 {
		res.MeanAccuracyGainVsDP1 = accSum / float64(accN)
	}
	if actN > 0 {
		res.MeanActiveGainVsDP1 = actSum / float64(actN)
	}
	if dp5N > 0 {
		res.AccuracyGainVsDP5 = dp5Sum / float64(dp5N)
	}
	if dp4N > 0 {
		res.AccuracyGainVsDP4 = dp4Sum / float64(dp4N)
	}
	return res, nil
}

// Render prints the paper-vs-measured headline grid.
func (r *HeadlineResult) Render() string {
	t := &table{header: []string{"claim", "paper", "measured"}}
	t.add("expected accuracy vs DP1 (mean gain)", "+46%", fmt.Sprintf("%+.0f%%", 100*r.MeanAccuracyGainVsDP1))
	t.add("active time vs DP1 (mean gain)", "+66%", fmt.Sprintf("%+.0f%%", 100*r.MeanActiveGainVsDP1))
	t.add("region-1 active time ratio vs DP1", "2.3x", fmt.Sprintf("%.1fx", r.Region1ActiveRatioVsDP1))
	t.add("accuracy vs DP5 in region 2 (mean gain)", "22-29%", fmt.Sprintf("%+.0f%%", 100*r.AccuracyGainVsDP5))
	t.add("accuracy vs DP4 in region 2 (mean gain)", "(low-power DP)", fmt.Sprintf("%+.0f%%", 100*r.AccuracyGainVsDP4))
	return "Headline claims (abstract / conclusion)\n" + t.String()
}

package eval

import (
	"repro/internal/core"
	"repro/internal/device"
)

// SwitchingRow compares scheduling granularities at one budget.
type SwitchingRow struct {
	BudgetJ float64
	// Switches is the block schedule's switch count.
	Switches int
	// BlockPct and InterleavedPct are switching-energy overheads as
	// percentages of the LP energy for block scheduling and for naive
	// per-window (1.6 s) interleaving.
	BlockPct       float64
	InterleavedPct float64
}

// SwitchingResult is the scheduling-granularity ablation: the LP treats
// design-point switching as free, which block schedules justify (≤2
// switches/hour) and naive interleaving does not.
type SwitchingResult struct {
	Rows []SwitchingRow
}

// Switching sweeps representative budgets across the three regions.
func Switching(cfg core.Config) (*SwitchingResult, error) {
	cfg.Alpha = 1
	plan, err := core.NewPlan(cfg)
	if err != nil {
		return nil, err
	}
	res := &SwitchingResult{}
	for _, budget := range []float64{1, 2, 3, 4.5, 5, 6, 7, 8, 9, 9.9} {
		alloc, err := plan.Solve(budget)
		if err != nil {
			return nil, err
		}
		s, err := device.BuildSchedule(cfg, alloc)
		if err != nil {
			return nil, err
		}
		block, inter, err := device.OverheadFraction(cfg, alloc, 1.6)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, SwitchingRow{
			BudgetJ:        budget,
			Switches:       s.Switches,
			BlockPct:       100 * block,
			InterleavedPct: 100 * inter,
		})
	}
	return res, nil
}

// Render prints the granularity grid.
func (r *SwitchingResult) Render() string {
	t := &table{header: []string{"budget(J)", "switches", "block ovh%", "interleaved ovh%"}}
	for _, row := range r.Rows {
		t.add(f2(row.BudgetJ), f1(float64(row.Switches)), f3(row.BlockPct), f2(row.InterleavedPct))
	}
	return "Switching-overhead ablation: block schedules vs 1.6 s interleaving\n" + t.String()
}

package eval

import (
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/forecast"
	"repro/internal/solar"
)

// StrategyRow compares one budget-allocation strategy over the solar
// month. The paper's REAP is myopic — it optimizes each hour against
// whatever budget the allocation layer hands it; this experiment measures
// how much the allocation layer itself matters, up to a perfect-forecast
// lookahead (the paper's implied future work).
type StrategyRow struct {
	Name string
	// MeanAccuracy is the month-mean expected accuracy (α=1 objective).
	MeanAccuracy float64
	// ActiveHours is the total active time in hours.
	ActiveHours float64
	// RelativeToOracle normalizes MeanAccuracy by the oracle lookahead's.
	RelativeToOracle float64
}

// StrategiesResult is the budget-strategy comparison.
type StrategiesResult struct {
	Rows []StrategyRow
}

// Strategies runs four stacks over an hourly harvest trace (the
// experiments command passes the September month):
//
//  1. greedy: spend each hour's harvest, no storage (battery-less class);
//  2. battery: Kansal-style day-smoothing allocator + myopic REAP;
//  3. ewma-lookahead: receding-horizon planner with the diurnal EWMA
//     forecaster (deployable);
//  4. oracle-lookahead: receding-horizon planner with perfect forecasts
//     (upper bound).
func Strategies(cfg core.Config, harvest []float64) (*StrategiesResult, error) {
	cfg.Alpha = 1
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	const capacity = 200.0
	res := &StrategiesResult{}

	greedy, err := device.Replay(cfg, solar.GreedyAllocator{}.Budgets(harvest), nil)
	if err != nil {
		return nil, err
	}
	res.add("greedy (no battery)", greedy)

	batAlloc := solar.BatteryAllocator{CapacityJ: capacity, InitialJ: 0, HorizonHours: 24, Efficiency: 0.9}
	battery, err := device.Replay(cfg, batAlloc.Budgets(harvest), nil)
	if err != nil {
		return nil, err
	}
	res.add("battery allocator + myopic REAP", battery)

	ew, err := forecast.NewEWMA(0.5)
	if err != nil {
		return nil, err
	}
	rhEWMA := &device.RecedingHorizon{Cfg: cfg, CapacityJ: capacity, Forecast: ew}
	ewmaRun, err := rhEWMA.Run(harvest)
	if err != nil {
		return nil, err
	}
	res.add("EWMA-forecast lookahead", ewmaRun)

	rhOracle := &device.RecedingHorizon{
		Cfg: cfg, CapacityJ: capacity,
		Forecast: &device.OracleForecaster{Trace: harvest},
	}
	oracleRun, err := rhOracle.Run(harvest)
	if err != nil {
		return nil, err
	}
	res.add("oracle-forecast lookahead", oracleRun)

	oracleAcc := res.Rows[len(res.Rows)-1].MeanAccuracy
	for i := range res.Rows {
		if oracleAcc > 0 {
			res.Rows[i].RelativeToOracle = res.Rows[i].MeanAccuracy / oracleAcc
		}
	}
	return res, nil
}

func (r *StrategiesResult) add(name string, run *device.RunResult) {
	r.Rows = append(r.Rows, StrategyRow{
		Name:         name,
		MeanAccuracy: run.MeanExpectedAccuracy(),
		ActiveHours:  run.TotalActiveTime() / 3600,
	})
}

// Render prints the strategy grid.
func (r *StrategiesResult) Render() string {
	t := &table{header: []string{"budget strategy", "mean E{a}", "active (h)", "vs oracle"}}
	for _, row := range r.Rows {
		t.add(row.Name, f3(row.MeanAccuracy), f1(row.ActiveHours), f2(row.RelativeToOracle))
	}
	return "Budget-allocation strategies over the solar month (extension; alpha=1)\n" + t.String()
}

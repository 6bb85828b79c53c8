package device

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// Forecaster predicts future hourly harvests; internal/forecast.EWMA
// satisfies it, and OracleForecaster supplies perfect knowledge for
// upper-bound experiments.
type Forecaster interface {
	// Observe folds in the harvest of the hour that just elapsed.
	Observe(harvest float64) error
	// Predict returns the expected harvest for the next k hours.
	Predict(k int) []float64
}

// OracleForecaster returns the true future trace — the perfect-forecast
// upper bound for receding-horizon planning.
type OracleForecaster struct {
	Trace []float64
	pos   int
}

// Observe advances the oracle's clock (the value is already known).
func (o *OracleForecaster) Observe(float64) error {
	o.pos++
	return nil
}

// Predict returns the next k true values, zero-padded past the end.
func (o *OracleForecaster) Predict(k int) []float64 {
	out := make([]float64, k)
	for i := 0; i < k; i++ {
		if o.pos+i < len(o.Trace) {
			out[i] = o.Trace[o.pos+i]
		}
	}
	return out
}

// RecedingHorizon runs the lookahead planner in closed loop: every hour it
// re-plans the next Horizon hours against the forecast, executes only the
// first hour against the true harvest, settles the battery, and feeds the
// observation back to the forecaster. With an oracle forecaster this is
// the paper's natural "what if the budget allocation layer saw the
// future" extension; with an EWMA forecaster it is deployable.
type RecedingHorizon struct {
	Cfg       core.Config
	CapacityJ float64
	BatteryJ  float64
	Horizon   int
	Forecast  Forecaster
}

// Run executes the planner over the true hourly harvest sequence and
// returns per-hour records whose budget is the true harvest. The battery
// lives in a core.Controller whose solve hook plans the horizon from the
// controller's charge and returns the first hour.
func (rh *RecedingHorizon) Run(harvest []float64) (*RunResult, error) {
	if rh.Forecast == nil {
		return nil, fmt.Errorf("device: receding horizon needs a forecaster")
	}
	if rh.Horizon <= 0 {
		rh.Horizon = 24
	}
	ctl, err := core.NewController(rh.Cfg, rh.BatteryJ, rh.CapacityJ)
	if err != nil {
		return nil, err
	}
	var forecast []float64
	ctl.SetSolveFunc(func(_ context.Context, cfg core.Config, _ float64) (core.Allocation, error) {
		plan, err := core.Lookahead(cfg, ctl.Battery(), rh.CapacityJ, forecast)
		if err != nil {
			return core.Allocation{}, err
		}
		return plan.Allocations[0], nil
	})
	res := &RunResult{}
	for _, actual := range harvest {
		forecast = rh.Forecast.Predict(rh.Horizon)
		if len(forecast) == 0 {
			return nil, fmt.Errorf("device: forecaster predicted no hours for a %d-hour horizon", rh.Horizon)
		}
		// The first planned hour uses the actual harvest (now known to
		// the harvesting circuitry as it arrives); later hours use the
		// forecast. This mirrors how the controller would experience it.
		forecast[0] = actual
		alloc, err := ctl.Step(actual)
		if err != nil {
			return nil, err
		}
		res.add(rh.Cfg, actual, alloc, alloc.Energy(rh.Cfg), ctl.Battery())
		if err := rh.Forecast.Observe(actual); err != nil {
			return nil, err
		}
	}
	return res, nil
}

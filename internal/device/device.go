// Package device simulates the wearable prototype hour by hour: the
// closed loop the paper evaluates in Section 5.4. Each hour a budget
// arrives, the device plans a schedule, executes it, and the energy it
// actually drew feeds back. The battery and the energy-accounting carry
// live in a core.Controller: Run closes the loop on one with execution
// noise, Replay hands allocator budgets to a battery-less one (Static
// installs a design-point baseline as its solve hook), and
// RecedingHorizon settles on one whose solve hook plans a day ahead.
// IntermittentDevice models the capacitor-only device class of Section
// 2, and BuildSchedule turns an allocation into the hour's switching
// sequence.
package device

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
)

// HourRecord is the outcome of one simulated activity period.
type HourRecord struct {
	// Budget is the energy made available to the period.
	Budget float64
	// Alloc is the planned schedule.
	Alloc core.Allocation
	// Consumed is the energy actually drawn (planned energy plus
	// execution noise).
	Consumed float64
	// ExpectedAccuracy, ActiveTime and Objective evaluate the plan.
	ExpectedAccuracy float64
	ActiveTime       float64
	Objective        float64
	// Region classifies the budget.
	Region core.Region
	// Battery is the stored energy after the period.
	Battery float64
}

// RunResult aggregates a simulated horizon.
type RunResult struct {
	Hours []HourRecord
}

// add records one period that planned alloc on cfg against budget, drew
// consumed joules and left battery joules stored.
func (r *RunResult) add(cfg core.Config, budget float64, alloc core.Allocation, consumed, battery float64) {
	r.Hours = append(r.Hours, HourRecord{
		Budget:           budget,
		Alloc:            alloc,
		Consumed:         consumed,
		ExpectedAccuracy: alloc.ExpectedAccuracy(cfg),
		ActiveTime:       alloc.ActiveTime(),
		Objective:        alloc.Objective(cfg),
		Region:           core.Classify(cfg, budget),
		Battery:          battery,
	})
}

// MeanObjective averages J(t) over all hours.
func (r *RunResult) MeanObjective() float64 {
	if len(r.Hours) == 0 {
		return 0
	}
	var s float64
	for _, h := range r.Hours {
		s += h.Objective
	}
	return s / float64(len(r.Hours))
}

// MeanExpectedAccuracy averages E{a} over all hours.
func (r *RunResult) MeanExpectedAccuracy() float64 {
	if len(r.Hours) == 0 {
		return 0
	}
	var s float64
	for _, h := range r.Hours {
		s += h.ExpectedAccuracy
	}
	return s / float64(len(r.Hours))
}

// TotalActiveTime sums active seconds over the horizon.
func (r *RunResult) TotalActiveTime() float64 {
	var s float64
	for _, h := range r.Hours {
		s += h.ActiveTime
	}
	return s
}

// TotalConsumed sums the energy drawn over the horizon.
func (r *RunResult) TotalConsumed() float64 {
	var s float64
	for _, h := range r.Hours {
		s += h.Consumed
	}
	return s
}

// Run closes the loop on ctl over an hourly harvest sequence (J). Each
// hour it steps the controller, draws the planned energy times
// 1+noise·N(0,1) from a stream seeded with seed (clamped at zero; no
// draw when noise is 0), reports that consumption back, and records the
// controller's budget and battery.
func Run(ctl *core.Controller, harvest []float64, noise float64, seed int64) (*RunResult, error) {
	if ctl == nil {
		return nil, fmt.Errorf("device: closed loop needs a controller")
	}
	rng := rand.New(rand.NewSource(seed))
	res := &RunResult{}
	for _, h := range harvest {
		alloc, err := ctl.Step(h)
		if err != nil {
			return nil, err
		}
		cfg := ctl.Config()
		consumed := alloc.Energy(cfg)
		if noise > 0 {
			consumed *= 1 + rng.NormFloat64()*noise
			if consumed < 0 {
				consumed = 0
			}
		}
		if err := ctl.Report(consumed); err != nil {
			return nil, err
		}
		res.add(cfg, ctl.LastBudget(), alloc, consumed, ctl.Battery())
	}
	return res, nil
}

// Replay plans each budget, as an allocator hands it out (harvest and
// battery smoothing already applied upstream), on a battery-less
// controller for cfg, so every hour stands alone. A nil solve runs
// REAP's optimizer; Static(i) runs design point i's baseline instead.
func Replay(cfg core.Config, budgets []float64, solve core.SolveFunc) (*RunResult, error) {
	ctl, err := core.NewController(cfg, 0, 0)
	if err != nil {
		return nil, err
	}
	ctl.SetSolveFunc(solve)
	return Run(ctl, budgets, 0, 0)
}

// Static is the solve hook of the static baseline that always runs
// design point i, duty-cycled against the off state — DP1..DP5 of
// Figures 5–7. It is also the on/off-only power management of the prior
// work the paper argues against (Section 2): two power states, no
// accuracy-aware mixing.
func Static(i int) core.SolveFunc {
	return func(_ context.Context, cfg core.Config, budget float64) (core.Allocation, error) {
		if i < 0 || i >= len(cfg.DPs) {
			return core.Allocation{}, fmt.Errorf("device: static index %d outside 0..%d",
				i, len(cfg.DPs)-1)
		}
		return core.StaticAllocation(cfg, i, budget), nil
	}
}

// Package device simulates the wearable prototype end to end: hour by
// hour it receives a harvesting budget, asks a policy (REAP or a static
// design point) for a schedule, executes the schedule — optionally pushing
// real synthetic sensor windows through the trained classifiers — and
// accounts for the energy actually consumed. It is the closed loop that
// the paper evaluates in Section 5.4.
package device

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
)

// Policy plans one activity period given the configuration and budget.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Plan returns the allocation for a period with the given budget (J).
	Plan(cfg core.Config, budget float64) (core.Allocation, error)
}

// REAPPolicy runs the paper's optimizer every period.
type REAPPolicy struct{}

// Name implements Policy.
func (REAPPolicy) Name() string { return "REAP" }

// Plan implements Policy.
func (REAPPolicy) Plan(cfg core.Config, budget float64) (core.Allocation, error) {
	return core.Solve(cfg, budget)
}

// StaticPolicy always runs one design point, duty-cycled against the off
// state — the baselines DP1..DP5 of Figures 5–7. It also embodies the
// on/off-only power management of the prior work the paper argues against
// (Section 2): two power states, no accuracy-aware mixing.
type StaticPolicy struct {
	// Index selects the design point in cfg.DPs.
	Index int
}

// Name implements Policy.
func (p StaticPolicy) Name() string { return fmt.Sprintf("DP%d", p.Index+1) }

// Plan implements Policy.
func (p StaticPolicy) Plan(cfg core.Config, budget float64) (core.Allocation, error) {
	if p.Index < 0 || p.Index >= len(cfg.DPs) {
		return core.Allocation{}, fmt.Errorf("device: static index %d outside 0..%d",
			p.Index, len(cfg.DPs)-1)
	}
	return core.StaticAllocation(cfg, p.Index, budget), nil
}

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
}

// RunResult aggregates a simulated horizon.
type RunResult struct {
	Policy string
	Hours  []HourRecord
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

// Simulator executes policies against an hourly budget sequence.
type Simulator struct {
	// Cfg is the REAP configuration (period, off power, alpha, DPs).
	Cfg core.Config
	// ExecutionNoise is the relative standard deviation of actual-vs-
	// planned consumption (strap slip, BLE retries, clock drift). Zero
	// disables it.
	ExecutionNoise float64
	// Seed drives the execution noise.
	Seed int64
}

// Run simulates the policy over the budget sequence. Budgets are taken as
// produced by an allocator (harvest + battery smoothing happen upstream).
func (s *Simulator) Run(p Policy, budgets []float64) (*RunResult, error) {
	if err := s.Cfg.Validate(); err != nil {
		return nil, err
	}
	if s.ExecutionNoise < 0 || s.ExecutionNoise > 0.5 || math.IsNaN(s.ExecutionNoise) {
		return nil, fmt.Errorf("device: execution noise %v outside [0, 0.5]", s.ExecutionNoise)
	}
	rng := rand.New(rand.NewSource(s.Seed))
	res := &RunResult{Policy: p.Name()}
	for _, budget := range budgets {
		alloc, err := p.Plan(s.Cfg, budget)
		if err != nil {
			return nil, err
		}
		planned := alloc.Energy(s.Cfg)
		consumed := planned
		if s.ExecutionNoise > 0 {
			consumed = planned * (1 + rng.NormFloat64()*s.ExecutionNoise)
			if consumed < 0 {
				consumed = 0
			}
		}
		res.Hours = append(res.Hours, HourRecord{
			Budget:           budget,
			Alloc:            alloc,
			Consumed:         consumed,
			ExpectedAccuracy: alloc.ExpectedAccuracy(s.Cfg),
			ActiveTime:       alloc.ActiveTime(),
			Objective:        alloc.Objective(s.Cfg),
			Region:           core.Classify(s.Cfg, budget),
		})
	}
	return res, nil
}

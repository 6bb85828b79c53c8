package core

import (
	"fmt"
	"math"

	"repro/internal/fpx"
)

// Defaults matching the paper's experimental setup.
const (
	// DefaultPeriod is the activity period TP: one hour, in seconds.
	DefaultPeriod = 3600.0
	// DefaultPOff is the off-state power draw of the harvesting and
	// monitoring circuitry: 0.18 J over one hour = 50 µW.
	DefaultPOff = 0.18 / 3600
	// DefaultAlpha selects the expected-accuracy objective.
	DefaultAlpha = 1.0
)

// Config fixes everything about the optimization except the energy budget,
// which arrives at runtime from the harvesting subsystem.
type Config struct {
	// Period is the activity period TP in seconds.
	Period float64
	// POff is the power drawn while the device is "off" (harvesting and
	// battery charging circuitry remain powered), in watts.
	POff float64
	// Alpha is the accuracy-versus-active-time trade-off exponent of the
	// objective J(t) = (1/TP) Σ aᵢ^α tᵢ.
	Alpha float64
	// DPs are the design points available at runtime; the paper uses the
	// five Pareto-optimal points of Table 2.
	DPs []DesignPoint
}

// DefaultConfig returns the paper's configuration: one-hour period, 50 µW
// off-state power, α = 1, and the Table 2 design points.
func DefaultConfig() Config {
	return Config{
		Period: DefaultPeriod,
		POff:   DefaultPOff,
		Alpha:  DefaultAlpha,
		DPs:    PaperDesignPoints(),
	}
}

// Validate checks the configuration for physical consistency. Every
// failure wraps ErrInvalidConfig so callers can classify with errors.Is.
func (c Config) Validate() error {
	if c.Period <= 0 || math.IsNaN(c.Period) || math.IsInf(c.Period, 1) {
		return fmt.Errorf("%w: period %v must be positive and finite", ErrInvalidConfig, c.Period)
	}
	if c.POff < 0 || math.IsNaN(c.POff) {
		return fmt.Errorf("%w: off power %v must be non-negative", ErrInvalidConfig, c.POff)
	}
	if c.Alpha < 0 || math.IsNaN(c.Alpha) || math.IsInf(c.Alpha, 1) {
		return fmt.Errorf("%w: alpha %v must be finite and non-negative", ErrInvalidConfig, c.Alpha)
	}
	if len(c.DPs) == 0 {
		return fmt.Errorf("%w: %w", ErrInvalidConfig, ErrNoDesignPoints)
	}
	for _, d := range c.DPs {
		if err := d.Validate(); err != nil {
			return err // already wraps ErrInvalidConfig
		}
		if d.Power <= c.POff {
			return fmt.Errorf("%w: design point %q power %v must exceed off power %v",
				ErrInvalidConfig, d.Name, d.Power, c.POff)
		}
	}
	return nil
}

// MinBudget is the energy needed to keep the harvesting circuitry powered
// for the whole period with every design point idle (the paper's 0.18 J
// floor for the default configuration).
func (c Config) MinBudget() float64 { return c.POff * c.Period }

// MaxUsefulBudget is the energy that lets the hungriest design point run
// for the entire period (9.9 J for DP1 in the paper); budgets beyond it
// change nothing.
func (c Config) MaxUsefulBudget() float64 {
	max := 0.0
	for _, d := range c.DPs {
		if e := d.EnergyPerPeriod(c.Period); e > max {
			max = e
		}
	}
	return max
}

// weight returns aᵢ^α, the objective coefficient of design point i.
// The α = 0 case degenerates to active time, where every design point
// counts equally (including, per the convention of the paper, one with
// zero accuracy).
func (c Config) weight(i int) float64 {
	if fpx.Zero(c.Alpha) {
		return 1
	}
	return math.Pow(c.DPs[i].Accuracy, c.Alpha)
}

// weightVector fills dst (len(c.DPs) long) with every design point's
// objective coefficient aᵢ^α. The iterative solvers call it once per
// solve, so the math.Pow cost stays out of their vertex loops.
func (c Config) weightVector(dst []float64) []float64 {
	for i := range dst {
		dst[i] = c.weight(i)
	}
	return dst
}

// Allocation is the output of the optimizer: how long to run each design
// point, how long to stay off, and how long the device is dead because the
// budget cannot even sustain the off state.
type Allocation struct {
	// Active holds the time in seconds allocated to each design point,
	// index-aligned with Config.DPs.
	Active []float64
	// Off is the time spent in the off state (harvester still powered).
	Off float64
	// Dead is the time the device is completely unpowered because the
	// budget is below POff·TP. The LP of the paper does not model this
	// explicitly; it appears when sweeping budgets below the 0.18 J floor.
	Dead float64
}

// ActiveTime returns the total time any design point is running.
func (a Allocation) ActiveTime() float64 {
	var s float64
	for _, t := range a.Active {
		s += t
	}
	return s
}

// Total returns active + off + dead time; it must equal the period.
func (a Allocation) Total() float64 { return a.ActiveTime() + a.Off + a.Dead }

// ExpectedAccuracy returns E{a} = (1/TP) Σ aᵢ tᵢ for the allocation under
// configuration c (the α = 1 objective regardless of c.Alpha).
func (a Allocation) ExpectedAccuracy(c Config) float64 {
	var s float64
	for i, t := range a.Active {
		s += c.DPs[i].Accuracy * t
	}
	return s / c.Period
}

// Objective evaluates J(t) = (1/TP) Σ aᵢ^α tᵢ for the allocation.
func (a Allocation) Objective(c Config) float64 {
	var s float64
	for i, t := range a.Active {
		s += c.weight(i) * t
	}
	return s / c.Period
}

// Energy returns the total energy in joules the allocation consumes.
func (a Allocation) Energy(c Config) float64 {
	s := c.POff * a.Off
	for i, t := range a.Active {
		s += c.DPs[i].Power * t
	}
	return s
}

// Utilization returns the fraction of the period allocated to design point
// i, a convenience for reporting (the paper quotes "DP4 42% of the time").
func (a Allocation) Utilization(c Config, i int) float64 {
	return a.Active[i] / c.Period
}

// String renders the allocation as percentages of the period.
func (a Allocation) String() string {
	total := a.Total()
	if fpx.Zero(total) {
		return "allocation{}"
	}
	s := "allocation{"
	for i, t := range a.Active {
		if t > 1e-9 {
			s += fmt.Sprintf("dp%d:%.1f%% ", i+1, 100*t/total)
		}
	}
	if a.Off > 1e-9 {
		s += fmt.Sprintf("off:%.1f%% ", 100*a.Off/total)
	}
	if a.Dead > 1e-9 {
		s += fmt.Sprintf("dead:%.1f%% ", 100*a.Dead/total)
	}
	return s[:len(s)-1] + "}"
}

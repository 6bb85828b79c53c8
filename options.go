package reap

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Option configures New, NewConfig and NewFleet. Options are applied in
// order, so later options override earlier ones; every option validates
// its arguments and construction fails on the first bad one.
type Option func(*settings) error

// settings accumulates the option values before construction. The zero
// battery (0 J charge, 0 J capacity) models the battery-less device
// class, matching the paper's harvesting-only prototype.
type settings struct {
	cfg       Config
	solve     core.SolveFunc // nil: solve on the plan
	batteryJ  float64
	capacityJ float64
	workers   int

	// deviceOverride refines settings per device when NewFleet builds a
	// heterogeneous fleet; nil means every device is identical.
	deviceOverride func(device int) []Option
}

func defaultSettings() *settings {
	return &settings{cfg: core.DefaultConfig()}
}

func (s *settings) apply(opts []Option) error {
	for _, opt := range opts {
		if opt == nil {
			return fmt.Errorf("%w: nil option", ErrInvalidConfig)
		}
		if err := opt(s); err != nil {
			return err
		}
	}
	return nil
}

// WithConfig replaces the whole configuration, for callers that already
// hold a Config (for instance one characterized by the har pipeline).
// Field-level options placed after it refine the replaced value. The
// design-point slice is copied, so mutating the caller's Config after
// construction never reaches a validated session.
func WithConfig(cfg Config) Option {
	return func(s *settings) error {
		cfg.DPs = append([]DesignPoint(nil), cfg.DPs...)
		s.cfg = cfg
		return nil
	}
}

// WithDesignPoints replaces the design-point set. The points are used as
// given; dominated points are not filtered out.
func WithDesignPoints(dps ...DesignPoint) Option {
	return func(s *settings) error {
		if len(dps) == 0 {
			return fmt.Errorf("%w: WithDesignPoints needs at least one point", ErrInvalidConfig)
		}
		s.cfg.DPs = append([]DesignPoint(nil), dps...)
		return nil
	}
}

// WithAlpha sets the accuracy-versus-active-time emphasis exponent of the
// objective J(t) = (1/TP) Σ aᵢ^α tᵢ. Range checking happens once, in
// Config.Validate, when the construction completes.
func WithAlpha(alpha float64) Option {
	return func(s *settings) error {
		s.cfg.Alpha = alpha
		return nil
	}
}

// WithPeriod sets the activity period TP in seconds.
func WithPeriod(seconds float64) Option {
	return func(s *settings) error {
		s.cfg.Period = seconds
		return nil
	}
}

// WithOffPower sets the off-state power draw in watts (the harvesting and
// monitoring circuitry that stays powered while the application is off).
func WithOffPower(watts float64) Option {
	return func(s *settings) error {
		s.cfg.POff = watts
		return nil
	}
}

// WithSolver selects the optimizer a session steps on by name:
// SolverPlan, the default, or SolverSimplex or SolverEnumerate, the
// iterative solvers the plan is checked against. Any other name fails
// construction with ErrUnknownSolver, so an unknown name fails New
// rather than the first Step. NewConfig ignores this option (beyond
// validating the name) since a Config carries no solver.
func WithSolver(name string) Option {
	// Each name maps onto the session's solve hook; the plan is the
	// absence of one. The three options capture nothing, so building
	// one allocates nothing.
	switch name {
	case SolverPlan:
		return func(s *settings) error { s.solve = nil; return nil }
	case SolverSimplex:
		return func(s *settings) error { s.solve = core.SolveContext; return nil }
	case SolverEnumerate:
		return func(s *settings) error { s.solve = core.SolveEnumerateContext; return nil }
	}
	return func(*settings) error {
		return fmt.Errorf("%w: %q (have %s, %s, %s)", ErrUnknownSolver, name, SolverEnumerate, SolverPlan, SolverSimplex)
	}
}

// WithBattery sets the backup battery's initial charge and capacity in
// joules. The default (0, 0) models a battery-less device. The charge
// must be finite, non-negative and at most the capacity plus 1e-9 J of
// rounding slack, and the capacity non-negative; NewConfig checks them
// and keeps neither, since a Config carries no battery state.
func WithBattery(chargeJ, capacityJ float64) Option {
	return func(s *settings) error {
		if capacityJ < 0 || chargeJ < 0 || chargeJ > capacityJ+1e-9 ||
			math.IsNaN(chargeJ) || math.IsInf(chargeJ, 0) || math.IsNaN(capacityJ) {
			return fmt.Errorf("%w: battery state %v/%v", ErrInvalidConfig, chargeJ, capacityJ)
		}
		s.batteryJ, s.capacityJ = chargeJ, capacityJ
		return nil
	}
}

// WithoutSolveCache does nothing: the solve cache it once disabled has
// been removed, and every device solves directly on its plan or on the
// solver WithSolver names.
//
// Deprecated: drop the option; it has no effect.
func WithoutSolveCache() Option {
	return func(*settings) error { return nil }
}

// WithDeviceOverride makes a fleet heterogeneous: when NewFleet builds
// device i it first applies the fleet-wide options, then the options
// override(i) returns — so a scenario can give half the fleet a bigger
// battery, a different α, or a reduced design-point set while the rest
// keep the defaults:
//
//	fleet, _ := reap.NewFleet(100,
//	    reap.WithBattery(20, 100),
//	    reap.WithDeviceOverride(func(i int) []reap.Option {
//	        if i%2 == 0 {
//	            return []reap.Option{reap.WithAlpha(2)}
//	        }
//	        return nil
//	    }))
//
// Devices whose overrides yield the same Config share one compiled
// plan (core.PlanFor memoizes by configuration fingerprint). New and
// NewConfig ignore this option.
func WithDeviceOverride(override func(device int) []Option) Option {
	return func(s *settings) error {
		if override == nil {
			return fmt.Errorf("%w: nil device override", ErrInvalidConfig)
		}
		s.deviceOverride = override
		return nil
	}
}

// WithWorkers bounds the worker pool a Fleet uses for StepAll. Zero (the
// default) selects GOMAXPROCS. New and NewConfig ignore this option.
func WithWorkers(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("%w: workers %d must be non-negative", ErrInvalidConfig, n)
		}
		s.workers = n
		return nil
	}
}

// NewConfig builds a validated Config from options, starting from the
// paper's defaults (one-hour period, 50 µW off-state power, α = 1, the
// five Table 2 design points). NewConfig() with no options is the
// options-layer spelling of DefaultConfig.
func NewConfig(opts ...Option) (Config, error) {
	s := defaultSettings()
	if err := s.apply(opts); err != nil {
		return Config{}, err
	}
	if err := s.cfg.Validate(); err != nil {
		return Config{}, err
	}
	return s.cfg, nil
}

// New creates a runtime controller session from options. The zero-option
// call reproduces the paper's setup — Table 2 design points, a
// battery-less device — solving on the compiled plan.
//
//	ctl, err := reap.New(
//	    reap.WithAlpha(2),
//	    reap.WithSolver(reap.SolverEnumerate),
//	    reap.WithBattery(20, 100),
//	)
func New(opts ...Option) (*Controller, error) {
	s := defaultSettings()
	if err := s.apply(opts); err != nil {
		return nil, err
	}
	return s.newController()
}

// newController builds one session from resolved settings. Every
// controller solves on the memoized plan for its configuration
// (core.PlanFor), so its steady-state step allocates nothing, unless
// WithSolver installed an iterative solver as its SolveFunc.
func (s *settings) newController() (*Controller, error) {
	ctl, err := core.NewController(s.cfg, s.batteryJ, s.capacityJ)
	if err != nil {
		return nil, err
	}
	ctl.SetSolveFunc(s.solve)
	return ctl, nil
}

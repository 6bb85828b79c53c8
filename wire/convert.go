package wire

import (
	"context"
	"errors"

	reap "repro"
)

// This file is the bridge between the wire schema and the solver API:
// the daemon and any Go client share these conversions, so a request
// built from wire structs and a reap.SolveBatch call see byte-identical
// semantics.

// CodeForError maps the public sentinel error taxonomy onto stable wire
// codes. Order matters where sentinels wrap each other: the most
// specific classification wins.
func CodeForError(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, reap.ErrBudgetNegative):
		return CodeBudgetNegative
	case errors.Is(err, reap.ErrUnknownSolver):
		return CodeUnknownSolver
	case errors.Is(err, reap.ErrInfeasible):
		return CodeInfeasible
	case errors.Is(err, reap.ErrSolverFailure):
		return CodeSolverFailure
	case errors.Is(err, reap.ErrInvalidConfig):
		return CodeInvalidConfig
	case errors.Is(err, context.DeadlineExceeded):
		return CodeDeadlineExceeded
	case errors.Is(err, context.Canceled):
		return CodeDraining
	default:
		return CodeInternal
	}
}

// ToReap resolves the wire config against the paper defaults: a nil
// receiver or zero field selects the default, an explicit value wins.
// Validation stays where it lives — reap.Config.Validate, run by every
// construction and solve path — so the wire layer cannot drift from the
// solver's rules.
func (c *Config) ToReap() reap.Config {
	cfg := reap.Config{
		Period: reap.DefaultPeriod,
		POff:   reap.DefaultPOff,
		Alpha:  1,
		DPs:    reap.PaperDesignPoints(),
	}
	if c == nil {
		return cfg
	}
	if c.PeriodS > 0 {
		cfg.Period = c.PeriodS
	}
	if c.POffW != nil {
		cfg.POff = *c.POffW
	}
	if c.Alpha != nil {
		cfg.Alpha = *c.Alpha
	}
	if len(c.DesignPoints) > 0 {
		cfg.DPs = make([]reap.DesignPoint, len(c.DesignPoints))
		for i, dp := range c.DesignPoints {
			cfg.DPs[i] = reap.DesignPoint{Name: dp.Name, Accuracy: dp.Accuracy, Power: dp.PowerW}
		}
	}
	return cfg
}

// ToRequest converts one batch item into the reap.SolveBatch request
// shape.
func (it SolveItem) ToRequest() reap.Request {
	return reap.Request{Config: it.Config.ToReap(), Budget: it.BudgetJ, Solver: it.Solver}
}

// FromAllocation renders a solved schedule on the wire. The Active
// slice is copied: wire values outlive the solver's reused buffers.
func FromAllocation(a reap.Allocation) Allocation {
	return Allocation{
		ActiveS: append([]float64(nil), a.Active...),
		OffS:    a.Off,
		DeadS:   a.Dead,
	}
}

// NewSolveResponse assembles the response for a solved request,
// deriving the reported energy and expected accuracy under the solved
// configuration.
func NewSolveResponse(cfg reap.Config, a reap.Allocation) *SolveResponse {
	return &SolveResponse{
		V:                Version,
		Allocation:       FromAllocation(a),
		EnergyJ:          a.Energy(cfg),
		ExpectedAccuracy: a.ExpectedAccuracy(cfg),
	}
}

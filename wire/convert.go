package wire

import (
	"context"
	"errors"
	"fmt"

	reap "repro"
	"repro/internal/fpx"
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

// CheckSolver validates a request's solver name. Wire v1 solves every
// request on the compiled plan, so it accepts only "" and "plan"; any
// other name is an error wrapping reap.ErrUnknownSolver, which
// CodeForError maps to CodeUnknownSolver.
func CheckSolver(name string) error {
	if name == "" || name == reap.SolverPlan {
		return nil
	}
	return fmt.Errorf("%w: %q (wire v%d solves on %q)", reap.ErrUnknownSolver, name, Version, reap.SolverPlan)
}

// ToReap resolves the wire config against the paper defaults: a nil
// receiver, an absent field or a zero period selects the default, and
// an explicit value wins — a negative period included, which
// Config.Validate then refuses. The five Table 2 design points are
// built only when no design point is given, into a slice of the
// caller's own. Validation stays where it lives — reap.Config.Validate,
// run by every construction and solve path — so the wire layer cannot
// drift from the solver's rules.
func (c *Config) ToReap() reap.Config {
	var dps []reap.DesignPoint
	if c != nil {
		dps = make([]reap.DesignPoint, len(c.DesignPoints))
	}
	return c.toReap(dps)
}

// toReap is ToReap converting c's design points into dps, which is
// len(c.DesignPoints) long.
func (c *Config) toReap(dps []reap.DesignPoint) reap.Config {
	cfg := reap.Config{
		Period: reap.DefaultPeriod,
		POff:   reap.DefaultPOff,
		Alpha:  1,
	}
	if c == nil {
		cfg.DPs = reap.PaperDesignPoints()
		return cfg
	}
	if !fpx.Zero(c.PeriodS) {
		cfg.Period = c.PeriodS
	}
	if c.POffW != nil {
		cfg.POff = *c.POffW
	}
	if c.Alpha != nil {
		cfg.Alpha = *c.Alpha
	}
	if len(c.DesignPoints) > 0 {
		cfg.DPs = dps
		for i, dp := range c.DesignPoints {
			cfg.DPs[i] = reap.DesignPoint{Name: dp.Name, Accuracy: dp.Accuracy, Power: dp.PowerW}
		}
	} else {
		cfg.DPs = reap.PaperDesignPoints()
	}
	return cfg
}

// ToRequest converts one batch item into the reap.SolveBatch request
// shape. The item's solver name has no place there: CheckSolver
// answers for it.
func (it SolveItem) ToRequest() reap.Request {
	return reap.Request{Config: it.Config.ToReap(), Budget: it.BudgetJ}
}

// ToRequests converts a batch's items as ToRequest does, except that
// the items without a config share one resolution of the paper
// defaults, made once per batch, and the items' own design points are
// carved out of one slab, each with its capacity clipped to its length
// so that an append to one item's cannot overwrite the next's.
func ToRequests(items []SolveItem) []reap.Request {
	reqs := make([]reap.Request, len(items))
	n := 0
	for _, it := range items {
		if it.Config != nil {
			n += len(it.Config.DesignPoints)
		}
	}
	slab := make([]reap.DesignPoint, n)
	var defaults reap.Config // resolved at the first item without a config
	for i, it := range items {
		if it.Config != nil {
			k := len(it.Config.DesignPoints)
			reqs[i] = reap.Request{Config: it.Config.toReap(slab[:k:k]), Budget: it.BudgetJ}
			slab = slab[k:]
			continue
		}
		if defaults.DPs == nil {
			defaults = it.Config.ToReap()
		}
		reqs[i] = reap.Request{Config: defaults, Budget: it.BudgetJ}
	}
	return reqs
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
// configuration. AppendSolve writes the same answer without building
// it.
func NewSolveResponse(cfg reap.Config, a reap.Allocation) *SolveResponse {
	return &SolveResponse{
		V:                Version,
		Allocation:       FromAllocation(a),
		EnergyJ:          a.Energy(cfg),
		ExpectedAccuracy: a.ExpectedAccuracy(cfg),
	}
}

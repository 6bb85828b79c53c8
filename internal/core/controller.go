package core

import (
	"context"
	"fmt"
	"math"
)

// SolveFunc is the pluggable optimizer backend of a Controller: it maps a
// configuration and an energy budget onto an allocation. SolveContext and
// SolveEnumerateContext both satisfy it; the public reap package installs
// one of them when WithSolver names "simplex" or "enumerate".
type SolveFunc func(ctx context.Context, c Config, budget float64) (Allocation, error)

// Controller is the runtime side of REAP: once per activity period it
// receives the energy made available by the harvesting subsystem, folds in
// the accounting surplus or deficit of the previous period (planned versus
// actually consumed energy), solves the allocation LP, and hands the
// schedule to the device.
//
// The paper re-optimizes every hour because "the available energy budget is
// not known at design time" and because α may change with user preference;
// both paths are exposed here (Step and SetAlpha).
type Controller struct {
	cfg Config

	// carry is the energy accounting balance in joules: positive when the
	// previous period consumed less than planned (e.g. the device was
	// docked), negative when it overshot.
	carry float64
	// battery tracks the backup battery state of charge in joules; the
	// carry is bounded by what the battery can absorb.
	battery     float64
	capacityJ   float64
	lastPlanned float64
	lastBudget  float64
	steps       int

	// plan is the memoized compiled solver for cfg (PlanFor), which
	// answers every solve unless a solve hook is set; StepInto's
	// zero-allocation path. Kept in sync with cfg by SetAlpha.
	plan *Plan
	// solve, when set, replaces the plan as the optimizer backend.
	solve SolveFunc
}

// NewController creates a runtime controller for cfg that solves on the
// memoized plan PlanFor returns. cfg is kept as given, so a controller
// sharing a plan with configurations that differ only in design-point
// names (see Config.Fingerprint) still reports the caller's names.
// batteryJ is the initial battery charge and capacityJ its capacity,
// both in joules; a zero capacity models the battery-less class of
// harvesting devices (any surplus is lost). The capacity may be
// infinite, the charge may not: an infinite charge would make every
// budget, and so the controller's State, infinite.
func NewController(cfg Config, batteryJ, capacityJ float64) (*Controller, error) {
	p, err := PlanFor(cfg)
	if err != nil {
		return nil, err
	}
	if capacityJ < 0 || batteryJ < 0 || batteryJ > capacityJ+1e-9 ||
		!finite(batteryJ) || math.IsNaN(capacityJ) {
		return nil, fmt.Errorf("%w: battery state %v/%v", ErrInvalidConfig, batteryJ, capacityJ)
	}
	return &Controller{cfg: cfg, plan: p, battery: batteryJ, capacityJ: capacityJ}, nil
}

// Config returns the controller's current configuration.
func (ct *Controller) Config() Config { return ct.cfg }

// Battery returns the current battery charge in joules.
func (ct *Controller) Battery() float64 { return ct.battery }

// Steps returns the number of periods stepped so far.
func (ct *Controller) Steps() int { return ct.steps }

// LastBudget returns the budget used in the most recent Step.
func (ct *Controller) LastBudget() float64 { return ct.lastBudget }

// SetAlpha changes the accuracy/active-time emphasis for subsequent
// periods, modelling a user-preference update at runtime. The
// controller moves to the memoized plan for the new α (PlanFor), so
// controllers that share a configuration keep sharing one plan. An α
// that Config.Validate refuses (negative, NaN or +Inf) fails with
// ErrInvalidConfig and changes nothing.
func (ct *Controller) SetAlpha(alpha float64) error {
	cfg := ct.cfg
	cfg.Alpha = alpha
	p, err := PlanFor(cfg)
	if err != nil {
		return err
	}
	ct.cfg, ct.plan = cfg, p
	return nil
}

// SetSolveFunc installs fn as the optimizer backend of subsequent Steps
// in place of the controller's plan; a nil fn removes the hook, so the
// plan answers again. Not safe for concurrent use with Step — configure
// the controller before starting its period loop.
func (ct *Controller) SetSolveFunc(fn SolveFunc) { ct.solve = fn }

// Step plans the next activity period. harvested is the energy (J) the
// harvesting subsystem expects to collect during the period. The budget
// handed to the optimizer is the harvested energy plus whatever the battery
// can contribute, corrected by the previous period's accounting balance.
// A negative, NaN or infinite harvest fails with ErrBudgetNegative.
func (ct *Controller) Step(harvested float64) (Allocation, error) {
	return ct.StepContext(context.Background(), harvested) //lint:reapvet ctxflow -- context-free compatibility shim; the root context is deliberate
}

// StepContext is Step with cancellation, forwarded to the solver backend.
func (ct *Controller) StepContext(ctx context.Context, harvested float64) (Allocation, error) {
	var alloc Allocation
	if err := ct.StepInto(ctx, harvested, &alloc); err != nil {
		return Allocation{}, err
	}
	return alloc, nil
}

// StepInto is StepContext writing the schedule into dst, the buffer-
// reusing form for closed loops: without a solve hook a steady-state
// step allocates nothing, because the plan solves straight into dst's
// existing Active slice. dst's previous contents are fully overwritten;
// on error the controller commits no state and dst is reset to the zero
// Allocation.
//
//reap:hotpath
func (ct *Controller) StepInto(ctx context.Context, harvested float64, dst *Allocation) error {
	if harvested < 0 || math.IsNaN(harvested) || math.IsInf(harvested, 1) {
		*dst = Allocation{}
		return fmt.Errorf("%w: harvested energy %v", ErrBudgetNegative, harvested) //lint:reapvet hotalloc -- cold error path
	}
	budget := harvested + ct.battery + ct.carry
	if budget < 0 {
		budget = 0
	}
	if ct.solve != nil {
		alloc, err := ct.solve(ctx, ct.cfg, budget)
		if err != nil {
			*dst = Allocation{}
			return err
		}
		*dst = alloc
	} else {
		err := ctx.Err()
		if err == nil {
			err = ct.plan.SolveInto(budget, dst)
		}
		if err != nil {
			*dst = Allocation{}
			return err
		}
	}
	ct.lastBudget = budget
	ct.carry = 0
	ct.steps++

	// Provisional accounting: assume the plan executes exactly. Report
	// corrects this when the device reports measured consumption.
	ct.lastPlanned = dst.Energy(ct.cfg)
	ct.settle(harvested, ct.lastPlanned)
	return nil
}

// Report records the energy actually consumed during the period that
// Step most recently planned, correcting the provisional accounting. The
// difference between planned and measured consumption becomes a carry for
// the next period — the feedback loop that keeps long-horizon operation
// energy-neutral even when the device deviates from the plan. A
// consumption so large that the carry would overflow to -Inf is refused
// like a negative one, and leaves the state untouched.
func (ct *Controller) Report(consumed float64) error {
	if consumed < 0 || math.IsNaN(consumed) {
		return fmt.Errorf("%w: consumed energy %v", ErrBudgetNegative, consumed)
	}
	carry := ct.carry + (ct.lastPlanned - consumed)
	if math.IsInf(carry, 0) {
		return fmt.Errorf("%w: consumed energy %v overflows the carry %v", ErrBudgetNegative, consumed, ct.carry)
	}
	ct.carry = carry
	return nil
}

// ControllerState is the serializable mutable state of a Controller —
// everything Step and Report accumulate, plus the one configuration
// field that changes at runtime (alpha, via SetAlpha). It exists for
// crash-safe serving: reapd's journal snapshots capture it and Restore
// reconstructs a controller mid-history without replaying from boot.
type ControllerState struct {
	BatteryJ     float64 `json:"battery_j"`
	CarryJ       float64 `json:"carry_j"`
	LastPlannedJ float64 `json:"last_planned_j"`
	LastBudgetJ  float64 `json:"last_budget_j"`
	Steps        int     `json:"steps"`
	Alpha        float64 `json:"alpha"`
}

// State snapshots the controller's mutable state.
func (ct *Controller) State() ControllerState {
	return ControllerState{
		BatteryJ:     ct.battery,
		CarryJ:       ct.carry,
		LastPlannedJ: ct.lastPlanned,
		LastBudgetJ:  ct.lastBudget,
		Steps:        ct.steps,
		Alpha:        ct.cfg.Alpha,
	}
}

// Restore overwrites the controller's mutable state with a snapshot
// taken by State on a controller with the same configuration and
// battery capacity. An alpha differing from the current configuration
// re-runs SetAlpha, which takes the memoized plan for it. State no
// controller can produce (a NaN or infinite energy, a charge outside
// the battery, a negative step count, an alpha SetAlpha refuses) fails
// with ErrInvalidConfig without committing anything.
func (ct *Controller) Restore(st ControllerState) error {
	if !finite(st.BatteryJ, st.CarryJ, st.LastPlannedJ, st.LastBudgetJ) ||
		st.BatteryJ < 0 || st.BatteryJ > ct.capacityJ+1e-9 || st.Steps < 0 {
		return fmt.Errorf("%w: controller state %+v", ErrInvalidConfig, st)
	}
	if !(st.Alpha == ct.cfg.Alpha) { //lint:reapvet floatcmp -- exact: only an explicit SetAlpha changes it
		if err := ct.SetAlpha(st.Alpha); err != nil {
			return err
		}
	}
	ct.battery = st.BatteryJ
	ct.carry = st.CarryJ
	ct.lastPlanned = st.LastPlannedJ
	ct.lastBudget = st.LastBudgetJ
	ct.steps = st.Steps
	return nil
}

// finite reports whether every value is neither NaN nor infinite.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// settle updates the battery after a period that harvested `in` joules and
// consumed `out` joules. Net surplus charges the battery up to capacity
// (overflow is lost — the harvester cannot store it); net deficit drains it.
func (ct *Controller) settle(in, out float64) {
	ct.battery += in - out
	if ct.battery > ct.capacityJ {
		ct.battery = ct.capacityJ
	}
	if ct.battery < 0 {
		ct.battery = 0
	}
}

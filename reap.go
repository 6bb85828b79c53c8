// Package reap is the public API of this reproduction of
// "REAP: Runtime Energy-Accuracy Optimization for Energy Harvesting IoT
// Devices" (Bhat, Bagewadi, Lee, Ogras — DAC 2019).
//
// REAP co-optimizes recognition accuracy and active time for a device that
// exposes several design points with different energy-accuracy trade-offs
// and lives on a harvested energy budget. Every activity period (an hour),
// it solves a small linear program that decides how long to run each
// design point and how long to stay off.
//
// The API is layered (see DESIGN.md):
//
//   - Solve: one stateless solve on the compiled plan, which turns
//     each configuration into its piecewise-linear budget→value
//     envelope once (memoized per configuration fingerprint) and
//     answers every solve with a binary search. Failures wrap typed
//     sentinel errors (ErrInvalidConfig, ErrBudgetNegative,
//     ErrInfeasible, ErrUnknownSolver) classified via errors.Is.
//   - Options layer: New and NewConfig assemble sessions and
//     configurations from functional options (WithDesignPoints,
//     WithAlpha, WithPeriod, WithBattery, ...). WithSolver can put a
//     session on "simplex" (the paper's Algorithm 1) or "enumerate",
//     the exact iterative solvers the plan is checked against.
//   - Fleet layer: Fleet steps many per-device sessions on a bounded
//     worker pool; SolveBatch is its stateless counterpart. Both solve
//     on the compiled plan, shared by every controller, batch item and
//     SetAlpha that lands on one configuration.
//   - Wire layer: package wire defines the versioned request/response
//     structs of the reapd network service (cmd/reapd), shared verbatim
//     by clients; internal/service hosts the sharded daemon behind
//     them.
//
// # Quick start
//
//	cfg, _ := reap.NewConfig()               // the paper's five Table 2 DPs
//	alloc, err := reap.Solve(ctx, cfg, 5.0)  // 5 J budget for this hour
//	if err != nil { ... }
//	fmt.Println(alloc)                       // dp4:42.9% dp5:57.1%
//	fmt.Println(alloc.ExpectedAccuracy(cfg)) // 0.82
//
// # Long-running devices
//
// A Controller session wraps the solver with battery tracking and
// planned-versus-measured energy accounting:
//
//	ctl, _ := reap.New(reap.WithBattery(20 /*J charge*/, 100 /*J capacity*/))
//	for hour := range harvest {
//	    alloc, _ := ctl.Step(harvest[hour])
//	    consumed := execute(alloc)           // run the device
//	    ctl.Report(consumed)                 // close the feedback loop
//	}
//
// # Fleets
//
// Fleet coordinates many devices from one process. By default every
// device solves on the fingerprint-memoized compiled plan, a binary
// search with no allocation:
//
//	fleet, _ := reap.NewFleet(1000, reap.WithBattery(20, 100))
//	allocs, _ := fleet.StepAll(ctx, budgets)  // budgets[i] for device i
//
// # Beyond the optimizer
//
// The internal packages build the paper's whole evaluation stack from
// scratch — synthetic user studies (internal/synth), the HAR design-point
// space (internal/har), a calibrated component energy model
// (internal/energy), solar harvesting (internal/solar), a device simulator
// (internal/device) and one generator per table/figure (internal/eval) —
// see DESIGN.md and the examples/ directory.
package reap

import (
	"repro/internal/core"
)

// Core optimizer types, re-exported for API stability.
type (
	// DesignPoint is one operating configuration: a (accuracy, power)
	// pair the optimizer can schedule.
	DesignPoint = core.DesignPoint
	// Config fixes the period, off-state power, α and design points.
	Config = core.Config
	// Allocation is a schedule: seconds per design point, off and dead
	// time.
	Allocation = core.Allocation
	// Controller is the runtime loop: budget in, schedule out, consumed
	// energy back in.
	Controller = core.Controller
	// ControllerState is a Controller's serializable mutable state —
	// the unit of reapd's crash-safe snapshots (Controller.State /
	// Controller.Restore).
	ControllerState = core.ControllerState
	// Region classifies budgets into the paper's Figure 5 regimes.
	Region = core.Region
)

// Region values (see Figure 5 of the paper).
const (
	RegionDead = core.RegionDead
	Region1    = core.Region1
	Region2    = core.Region2
	Region3    = core.Region3
)

// Defaults from the paper's experimental setup.
const (
	// DefaultPeriod is the one-hour activity period TP in seconds.
	DefaultPeriod = core.DefaultPeriod
	// DefaultPOff is the 50 µW off-state draw (0.18 J per hour).
	DefaultPOff = core.DefaultPOff
)

// DefaultConfig returns the paper's configuration: one-hour period, 50 µW
// off-state power, α = 1 and the five Table 2 design points. It equals
// NewConfig() without options.
func DefaultConfig() Config { return core.DefaultConfig() }

// PaperDesignPoints returns the five Pareto-optimal design points of
// Table 2 as measured on the paper's prototype.
func PaperDesignPoints() []DesignPoint { return core.PaperDesignPoints() }

// StaticObjective evaluates J(t) for the single-design-point baseline:
// run design point i for as long as the budget allows, then switch off.
func StaticObjective(cfg Config, i int, budget float64) float64 {
	return core.StaticObjective(cfg, i, budget)
}

// Classify places an energy budget into its operating region.
func Classify(cfg Config, budget float64) Region { return core.Classify(cfg, budget) }

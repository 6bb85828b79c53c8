package reap

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Solver is one optimizer backend: it maps a configuration and an energy
// budget for one activity period onto a time allocation. Implementations
// must be safe for concurrent use — the Fleet and SolveBatch layers call
// a single Solver from many goroutines. Decorators compose at this seam:
// a Solver that wraps a registered backend (to count or time its solves,
// say) can itself be registered under a new name.
type Solver interface {
	Solve(ctx context.Context, cfg Config, budget float64) (Allocation, error)
}

// SolverFunc adapts an ordinary function to the Solver interface.
type SolverFunc func(ctx context.Context, cfg Config, budget float64) (Allocation, error)

// Solve calls f.
func (f SolverFunc) Solve(ctx context.Context, cfg Config, budget float64) (Allocation, error) {
	return f(ctx, cfg, budget)
}

// Names of the built-in solver backends, registered at init.
const (
	// SolverSimplex is the paper's Algorithm 1: a dense two-phase simplex
	// over the period and budget constraints. Kept as the reference
	// implementation and cross-check for the plan backend.
	SolverSimplex = "simplex"
	// SolverEnumerate solves the same LP by direct vertex enumeration —
	// an independent cross-check that is faster for small design sets.
	SolverEnumerate = "enumerate"
	// SolverPlan is the compiled parametric backend: each configuration
	// compiles once into its budget-parametric solved form (the concave
	// budget→value envelope, see core.Plan), after which every solve is
	// a binary search over the envelope's breakpoints plus two
	// multiplies. Exact — same optimum as simplex and enumerate to
	// floating-point noise — and the default backend.
	SolverPlan = "plan"
)

// DefaultSolver is the backend New, NewFleet and SolveBatch use when no
// option or request names one: the compiled parametric plan. The
// simplex and enumerate backends remain registered as cross-checks and
// for callers that pin the paper's Algorithm 1.
const DefaultSolver = SolverPlan

var solverRegistry = struct {
	sync.RWMutex
	m map[string]Solver
}{m: map[string]Solver{}}

// plans is the registered plan backend, whose memo also supplies the
// plan every controller New and NewFleet build holds.
var plans = &planBackend{}

func init() {
	mustRegisterSolver(SolverSimplex, SolverFunc(core.SolveContext))
	mustRegisterSolver(SolverEnumerate, SolverFunc(core.SolveEnumerateContext))
	mustRegisterSolver(SolverPlan, plans)
}

// planBackend adapts core.Plan to the Solver interface: it memoizes one
// compiled plan per configuration fingerprint, so fleets, batches and
// repeated solves against the same Config pay compilation (validation,
// the aᵢ^α powers, the envelope sort and hull) exactly once. Entries
// are keyed by Config.Fingerprint(); a cross-configuration hash
// collision (~2⁻⁶⁴ per pair) would serve the wrong plan — callers
// needing hard isolation can compile core plans themselves. The memo
// is capped: beyond planBackendMaxPlans distinct
// configurations, additional configs compile per solve instead of
// growing the map (adversarial workloads stay bounded; real fleets use
// a handful of configurations).
//
// The memo is a copy-on-write map behind an atomic.Pointer: this is the
// default solve path of every fleet since the plan-first re-tier, so
// the hit path must be a lock-free load — misses (compilation, a
// once-per-configuration event) take a mutex, copy the map and publish
// the extended copy.
type planBackend struct {
	plans atomic.Pointer[map[uint64]*core.Plan]
	mu    sync.Mutex // serializes copy-on-write publication on miss
}

const planBackendMaxPlans = 4096

// planFor returns the compiled plan for cfg, compiling and memoizing on
// first sight.
func (pb *planBackend) planFor(cfg Config) (*core.Plan, error) {
	fp := cfg.Fingerprint()
	if m := pb.plans.Load(); m != nil {
		if p, ok := (*m)[fp]; ok {
			return p, nil
		}
	}
	p, err := core.NewPlan(cfg)
	if err != nil {
		return nil, err
	}
	pb.mu.Lock()
	defer pb.mu.Unlock()
	old := pb.plans.Load()
	if old != nil {
		// Re-check under the lock: a concurrent miss may have published
		// this fingerprint while we compiled. Returning the published
		// plan keeps every caller of one configuration on one *Plan.
		if prev, ok := (*old)[fp]; ok {
			return prev, nil
		}
		if len(*old) >= planBackendMaxPlans {
			return p, nil
		}
	}
	next := make(map[uint64]*core.Plan, 1)
	if old != nil {
		next = make(map[uint64]*core.Plan, len(*old)+1)
		for k, v := range *old {
			next[k] = v
		}
	}
	next[fp] = p
	pb.plans.Store(&next)
	return p, nil
}

// Solve implements Solver. Argument checks mirror the iterative
// backends: context first, then configuration (on compilation — an
// invalid config never memoizes, so it fails every call), then budget.
func (pb *planBackend) Solve(ctx context.Context, cfg Config, budget float64) (Allocation, error) {
	if err := ctx.Err(); err != nil {
		return Allocation{}, err
	}
	p, err := pb.planFor(cfg)
	if err != nil {
		return Allocation{}, err
	}
	return p.Solve(budget)
}

func mustRegisterSolver(name string, s Solver) {
	if err := RegisterSolver(name, s); err != nil {
		panic(err)
	}
}

// RegisterSolver adds a named backend to the registry, making it
// selectable through WithSolver and Request.Solver. Registration fails on
// an empty name, a nil Solver, or a name already taken — backends are
// never silently replaced.
func RegisterSolver(name string, s Solver) error {
	if name == "" {
		return fmt.Errorf("%w: solver name must be non-empty", ErrInvalidConfig)
	}
	if s == nil {
		return fmt.Errorf("%w: solver %q is nil", ErrInvalidConfig, name)
	}
	solverRegistry.Lock()
	defer solverRegistry.Unlock()
	if _, dup := solverRegistry.m[name]; dup {
		return fmt.Errorf("%w: solver %q already registered", ErrInvalidConfig, name)
	}
	solverRegistry.m[name] = s
	return nil
}

// LookupSolver returns the backend registered under name. Unknown names
// yield an error wrapping ErrUnknownSolver that lists the known backends.
func LookupSolver(name string) (Solver, error) {
	solverRegistry.RLock()
	s, ok := solverRegistry.m[name]
	solverRegistry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownSolver, name, Solvers())
	}
	return s, nil
}

// Solvers returns the names of all registered backends, sorted.
func Solvers() []string {
	solverRegistry.RLock()
	names := make([]string, 0, len(solverRegistry.m))
	for name := range solverRegistry.m {
		names = append(names, name)
	}
	solverRegistry.RUnlock()
	sort.Strings(names)
	return names
}

package reap

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fpx"
)

// Fleet owns one Controller session per device and steps them all
// concurrently — the coordination layer for serving many harvesting
// devices from one process. Every device shares the same configuration,
// solver backend and initial battery state; per-device divergence happens
// through each device's own budgets, accounting carry and battery.
//
//	fleet, _ := reap.NewFleet(1000, reap.WithBattery(20, 100))
//	allocs, err := fleet.StepAll(ctx, budgets) // budgets[i] for device i
//
// By default every device solves directly on the compiled parametric
// plan: devices sharing a configuration share one memoized core.Plan,
// and keep sharing it after a SetAlpha to a common α, so a solve is a
// lock-free binary search with no allocation.
type Fleet struct {
	ctls    []*Controller
	workers int

	// active is the membership mask for mid-run churn (SetActive): nil
	// means every device participates, the common case, so fleets that
	// never churn pay nothing for the feature. An inactive device is
	// skipped by StepAll (zero Allocation, no battery or accounting
	// mutation) and by ReportAll — its controller state freezes until it
	// rejoins.
	active []bool

	// errs and started are the per-tick scratch of stepAllInto (and errs
	// of ReportAll), hoisted here so a steady-state fleet tick allocates
	// nothing. StepAll, ReportAll and Run are documented as not
	// concurrency-safe with one another, so one scratch set per fleet
	// suffices.
	errs    []error
	started []bool
}

// NewFleet creates n controller sessions from the same options New
// accepts, plus WithWorkers to bound StepAll's concurrency and
// WithDeviceOverride to vary settings per device. The default solve
// path is the compiled plan core.PlanFor memoizes per configuration
// fingerprint, one per distinct configuration in the fleet.
func NewFleet(n int, opts ...Option) (*Fleet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: fleet size %d must be positive", ErrInvalidConfig, n)
	}
	s := defaultSettings()
	if err := s.apply(opts); err != nil {
		return nil, err
	}
	f := &Fleet{
		ctls:    make([]*Controller, n),
		workers: s.workers,
		errs:    make([]error, n),
		started: make([]bool, n),
	}
	for i := range f.ctls {
		ds := s
		if s.deviceOverride != nil {
			// Copy the fleet-wide settings and refine them with the
			// device's own options. The copy shares the design-point slice
			// with the base, which is safe: every option that changes
			// design points replaces the slice rather than mutating it.
			dv := *s
			if err := dv.apply(s.deviceOverride(i)); err != nil {
				return nil, fmt.Errorf("device %d: %w", i, err)
			}
			ds = &dv
		}
		// Devices sharing a configuration share one compiled plan
		// (core.PlanFor memoizes per fingerprint); a compiled core.Plan
		// is immutable and safe for the whole fleet to solve on
		// concurrently.
		ctl, err := ds.newController()
		if err != nil {
			if s.deviceOverride != nil {
				err = fmt.Errorf("device %d: %w", i, err)
			}
			return nil, err
		}
		f.ctls[i] = ctl
	}
	return f, nil
}

// Size returns the number of devices in the fleet.
func (f *Fleet) Size() int { return len(f.ctls) }

// Device returns device i's controller, for per-device inspection and
// tuning (battery level, SetAlpha). Out-of-range indices return an error
// wrapping ErrInvalidConfig. The controller is not safe to step
// concurrently with StepAll.
func (f *Fleet) Device(i int) (*Controller, error) {
	if i < 0 || i >= len(f.ctls) {
		return nil, fmt.Errorf("%w: device %d out of range [0, %d)", ErrInvalidConfig, i, len(f.ctls))
	}
	return f.ctls[i], nil
}

// SetActive changes device i's fleet membership mid-run — the churn
// seam for devices joining and leaving a live fleet. An inactive device
// is not stepped (StepAll returns the zero Allocation for it) and not
// reported to (ReportAll ignores its entry), so its battery and
// accounting state freeze exactly where they were; reactivating resumes
// from that state, the way a provisioned device coming back online
// resumes from its last-known charge. Out-of-range indices return an
// error wrapping ErrInvalidConfig. Like StepAll, SetActive is not safe
// to call concurrently with a step in flight.
func (f *Fleet) SetActive(i int, active bool) error {
	if i < 0 || i >= len(f.ctls) {
		return fmt.Errorf("%w: device %d out of range [0, %d)", ErrInvalidConfig, i, len(f.ctls))
	}
	if f.active == nil {
		if active {
			return nil // all devices are active by default
		}
		f.active = make([]bool, len(f.ctls))
		for j := range f.active {
			f.active[j] = true
		}
	}
	f.active[i] = active
	return nil
}

// Active reports whether device i currently participates in fleet
// steps; devices outside the fleet are never active.
func (f *Fleet) Active(i int) bool {
	if i < 0 || i >= len(f.ctls) {
		return false
	}
	return f.active == nil || f.active[i]
}

// StepAll plans the next activity period for every device: budgets[i] is
// the energy (J) device i's harvesting subsystem expects to collect. The
// solves run on a bounded worker pool (WithWorkers, default GOMAXPROCS).
//
// The returned slice always has one entry per device. Per-device failures
// do not stop the rest of the fleet: failed entries hold the zero
// Allocation and the joined error names each failing device. Cancelling
// the context abandons devices not yet started; each abandoned device
// gets its own "not stepped" entry in the joined error, so callers can
// tell which devices already committed battery/accounting state (stepped
// devices must not be retried — Step is not idempotent).
func (f *Fleet) StepAll(ctx context.Context, budgets []float64) ([]Allocation, error) {
	if len(budgets) != len(f.ctls) {
		return nil, fmt.Errorf("%w: %d budgets for %d devices", ErrInvalidConfig, len(budgets), len(f.ctls))
	}
	allocs := make([]Allocation, len(f.ctls))
	return allocs, f.stepAllInto(ctx, budgets, allocs)
}

// stepAllInto is StepAll writing into a caller-owned allocation slice:
// each device steps with StepInto, so on the plan path a reused allocs
// slice (Fleet.Run's loop) makes the whole fleet tick allocation-free
// per device in steady state — the single-worker case even avoids the
// worker-pool closure. Entries of failed or unstarted
// devices are reset to the zero Allocation.
//
//reap:hotpath
func (f *Fleet) stepAllInto(ctx context.Context, budgets []float64, allocs []Allocation) error {
	errs, started := f.errs, f.started
	for i := range errs {
		errs[i], started[i] = nil, false
	}
	if f.workerCount(len(f.ctls)) == 1 {
		for i := range f.ctls {
			if ctx.Err() != nil {
				break
			}
			started[i] = true
			if f.active != nil && !f.active[i] {
				allocs[i] = Allocation{}
				continue
			}
			if err := f.ctls[i].StepInto(ctx, budgets[i], &allocs[i]); err != nil {
				errs[i] = fmt.Errorf("device %d: %w", i, err) //lint:reapvet hotalloc -- cold error path
			}
		}
	} else {
		f.run(ctx, len(f.ctls), func(i int) { //lint:reapvet hotalloc -- one closure per multi-worker tick, not per device
			started[i] = true
			if f.active != nil && !f.active[i] {
				allocs[i] = Allocation{}
				return
			}
			if err := f.ctls[i].StepInto(ctx, budgets[i], &allocs[i]); err != nil {
				errs[i] = fmt.Errorf("device %d: %w", i, err) //lint:reapvet hotalloc -- cold error path
			}
		})
	}
	if err := ctx.Err(); err != nil {
		for i := range errs {
			if !started[i] {
				allocs[i] = Allocation{}
				errs[i] = fmt.Errorf("device %d: not stepped: %w", i, err) //lint:reapvet hotalloc -- cold cancellation path
			}
		}
	}
	return errors.Join(errs...)
}

// ReportAll closes the feedback loop for every device: consumed[i] is the
// energy device i actually spent during the period StepAll last planned.
// Inactive devices (SetActive) are skipped — they executed nothing, so
// their entry is ignored rather than booked as a zero-consumption period.
// ReportAll shares StepAll's per-tick scratch, so it is not safe to call
// concurrently with StepAll (or Run) on the same fleet.
//
//reap:hotpath
func (f *Fleet) ReportAll(consumed []float64) error {
	if len(consumed) != len(f.ctls) {
		return fmt.Errorf("%w: %d reports for %d devices", ErrInvalidConfig, len(consumed), len(f.ctls)) //lint:reapvet hotalloc -- cold error path
	}
	// errors.Join copies the non-nil errors it keeps, so the scratch
	// can be reused next tick.
	errs := f.errs
	clear(errs)
	for i, ctl := range f.ctls {
		if f.active != nil && !f.active[i] {
			continue
		}
		if err := ctl.Report(consumed[i]); err != nil {
			errs[i] = fmt.Errorf("device %d: %w", i, err) //lint:reapvet hotalloc -- cold error path
		}
	}
	return errors.Join(errs...)
}

// HarvestSource feeds a fleet's closed loop: for each step it fills
// dst[i] with the energy budget (J) device i's harvesting subsystem
// makes available for the period. Implementations range from replaying
// a recorded trace to the sim package's solar-plus-forecast composition.
type HarvestSource interface {
	Budgets(step int, dst []float64) error
}

// ConsumptionModel closes a fleet's feedback loop: after the fleet plans
// step, it fills dst[i] with the energy (J) device i actually consumed
// executing allocs[i] — planned energy plus whatever execution noise,
// activity dependence or faults the model simulates.
type ConsumptionModel interface {
	Consumed(step int, allocs []Allocation, dst []float64) error
}

// StepObserver sees each completed loop iteration: the step index, the
// budgets handed to the fleet, the allocations it planned, and the
// consumption reported back. The slices are reused across steps — copy
// what must outlive the call.
type StepObserver func(step int, budgets []float64, allocs []Allocation, consumed []float64) error

// Run drives the fleet closed-loop for steps periods: each iteration
// asks src for budgets, plans with StepAll, asks model for the realized
// consumption, and reports it back with ReportAll. observe (optional)
// sees every completed iteration. Run stops at the first error — a
// source or model failure, a failed device step, or context
// cancellation — identifying the step it happened on.
//
// Run is the seam the sim package builds on; any caller with a harvest
// trace and a consumption model gets the same multi-period loop the
// paper evaluates, without hand-rolling the bookkeeping.
func (f *Fleet) Run(ctx context.Context, steps int, src HarvestSource, model ConsumptionModel, observe StepObserver) error {
	if steps < 0 {
		return fmt.Errorf("%w: %d steps must be non-negative", ErrInvalidConfig, steps)
	}
	if src == nil || model == nil {
		return fmt.Errorf("%w: Run needs a harvest source and a consumption model", ErrInvalidConfig)
	}
	budgets := make([]float64, len(f.ctls))
	consumed := make([]float64, len(f.ctls))
	// One allocation buffer for the whole run: stepAllInto refills it in
	// place each period, and controllers on the plan fast path solve
	// straight into the retained Active slices — a steady-state device-
	// step allocates nothing. The observer contract already requires
	// copying anything that must outlive the call.
	allocs := make([]Allocation, len(f.ctls))
	for step := 0; step < steps; step++ {
		if err := src.Budgets(step, budgets); err != nil {
			return fmt.Errorf("step %d: harvest source: %w", step, err)
		}
		if err := f.stepAllInto(ctx, budgets, allocs); err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
		if err := model.Consumed(step, allocs, consumed); err != nil {
			return fmt.Errorf("step %d: consumption model: %w", step, err)
		}
		if err := f.ReportAll(consumed); err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
		if observe != nil {
			if err := observe(step, budgets, allocs, consumed); err != nil {
				return fmt.Errorf("step %d: observer: %w", step, err)
			}
		}
	}
	return nil
}

// workerCount resolves the pool width for n work items: the WithWorkers
// setting, defaulting to GOMAXPROCS, never more than one worker per
// chunk of the work.
func (f *Fleet) workerCount(n int) int {
	workers := f.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return poolWidth(workers, n)
}

// run executes work(0..n-1) on the fleet's worker pool, stopping early
// when ctx is cancelled.
func (f *Fleet) run(ctx context.Context, n int, work func(i int)) {
	poolRun(ctx, f.workerCount(n), n, work)
}

// poolChunk is how many indices a worker claims at a time. One solve
// runs in about a microsecond, so per-index handoff through a channel
// would cost more than the work; chunked claims off an atomic counter
// amortize the coordination to noise while keeping the pool balanced.
const poolChunk = 64

// poolWidth caps a pool of workers at one per chunk of n indices: a
// worker past the last chunk would start, find nothing to claim and
// exit.
func poolWidth(workers, n int) int {
	return min(workers, (n+poolChunk-1)/poolChunk)
}

// poolRun fans indices 0..n-1 out to the given number of workers, but
// never to more than one per chunk, stopping early (at chunk
// granularity) when ctx is cancelled. A pool of one, which is all that
// work of one chunk gets, runs inline on the calling goroutine.
func poolRun(ctx context.Context, workers, n int, work func(i int)) {
	if workers = poolWidth(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			if i%poolChunk == 0 && ctx.Err() != nil {
				return
			}
			work(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				start := int(next.Add(poolChunk)) - poolChunk
				if start >= n {
					return
				}
				end := start + poolChunk
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					work(i)
				}
			}
		}()
	}
	wg.Wait()
}

// Request is one independent solve in a SolveBatch call.
type Request struct {
	// Config for the solve; the zero value selects the paper defaults
	// (DefaultConfig).
	Config Config
	// Budget is the energy available for the period, in joules.
	Budget float64
	// Solver names the registry backend to use; empty selects the
	// default backend (DefaultSolver, the compiled parametric plan).
	Solver string
}

// Result pairs a Request's allocation with its error; exactly one of the
// two is meaningful.
type Result struct {
	Allocation Allocation
	Err        error
}

// SolveBatch solves many independent allocation problems on a worker pool
// of up to GOMAXPROCS goroutines, one per chunk of 64 requests (a batch
// of one chunk runs on the calling goroutine) — the stateless
// counterpart of Fleet.StepAll for embarrassingly parallel workloads
// (budget sweeps, what-if grids, serving stateless solve RPCs).
// results[i] answers reqs[i]; cancelling the context marks every
// unstarted request with ctx.Err().
//
// Each request names its own backend (Request.Solver). Requests on the
// default plan backend compile each distinct configuration fingerprint
// once (core.PlanFor memoizes compiled plans), so a sweep of N budgets
// over one Config pays one compilation and N binary-search solves.
func SolveBatch(ctx context.Context, reqs []Request) []Result {
	results := make([]Result, len(reqs))
	started := make([]bool, len(reqs))

	// Resolve every request's backend up front, memoized per distinct
	// name: the per-request work is a microsecond-scale solve, so
	// registry locking and map lookups must stay out of the hot loop.
	// resolved/resolveErr are read-only once the pool starts.
	var defaultCfg Config // resolved at the first zero Config
	byName := map[string]Solver{}
	errByName := map[string]error{}
	resolved := make([]Solver, len(reqs))
	resolveErr := make([]error, len(reqs))
	for i, req := range reqs {
		name := req.Solver
		if name == "" {
			name = DefaultSolver
		}
		if _, seen := byName[name]; !seen && errByName[name] == nil {
			if solver, err := LookupSolver(name); err != nil {
				errByName[name] = err
			} else {
				byName[name] = solver
			}
		}
		resolved[i], resolveErr[i] = byName[name], errByName[name]
		if defaultCfg.DPs == nil && isZeroConfig(req.Config) {
			defaultCfg = core.DefaultConfig()
		}
	}

	poolRun(ctx, runtime.GOMAXPROCS(0), len(reqs), func(i int) {
		started[i] = true
		if err := resolveErr[i]; err != nil {
			results[i] = Result{Err: err}
			return
		}
		cfg := reqs[i].Config
		if isZeroConfig(cfg) {
			cfg = defaultCfg
		}
		alloc, err := resolved[i].Solve(ctx, cfg, reqs[i].Budget)
		results[i] = Result{Allocation: alloc, Err: err}
	})
	// Requests the pool never started (context cancelled mid-batch) carry
	// the context error so callers can tell them from successes.
	if err := ctx.Err(); err != nil {
		for i := range results {
			if !started[i] {
				results[i].Err = err
			}
		}
	}
	return results
}

func isZeroConfig(c Config) bool {
	return fpx.Zero(c.Period) && fpx.Zero(c.POff) && fpx.Zero(c.Alpha) && c.DPs == nil
}

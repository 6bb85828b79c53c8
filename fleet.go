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
// solver and initial battery state; per-device divergence happens
// through each device's own budgets, accounting carry and battery.
//
//	fleet, _ := reap.NewFleet(1000, reap.WithBattery(20, 100))
//	allocs, err := fleet.StepAll(ctx, budgets) // budgets[i] for device i
//
// By default every device solves directly on the compiled parametric
// plan: devices sharing a configuration share one memoized core.Plan,
// and keep sharing it after a SetAlpha to a common α, so a solve is a
// lock-free binary search with no allocation.
//
// The controllers live in one slab per fleet, so a fleet of any size is
// a handful of heap objects for the collector to mark, and the per-tick
// scratch appears on the first StepAll or ReportAll: a fleet that is
// only ever stepped device by device never makes it.
type Fleet struct {
	ctls []Controller

	// active is the membership mask for mid-run churn (SetActive): nil
	// means every device participates, the common case, so fleets that
	// never churn pay nothing for the feature. An inactive device is
	// skipped by StepAll (zero Allocation, no battery or accounting
	// mutation) and by ReportAll — its controller state freezes until it
	// rejoins.
	active []bool

	// errs is the per-device error scratch of stepAllInto and ReportAll,
	// made on the first tick (tickErrs) and reused after it, so a
	// steady-state fleet tick allocates nothing. StepAll, ReportAll and
	// Run are documented as not concurrency-safe with one another, so
	// one scratch slice per fleet suffices.
	errs []error
}

// NewFleet creates n controller sessions from the same options New
// accepts, plus WithDeviceOverride to vary settings per device. The
// default solve path is the compiled plan core.PlanFor memoizes per
// configuration fingerprint, one per distinct configuration in the
// fleet.
func NewFleet(n int, opts ...Option) (*Fleet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: fleet size %d must be positive", ErrInvalidConfig, n)
	}
	s := defaultSettings()
	if err := s.apply(opts); err != nil {
		return nil, err
	}
	f := &Fleet{ctls: make([]Controller, n)}
	// Every device is a copy of a controller built from its settings.
	// The copies share the design-point slice, the compiled plan and
	// any solve hook, which is safe: a controller never mutates its
	// design points, every option that changes them replaces the slice,
	// and a compiled core.Plan (core.PlanFor memoizes one per
	// fingerprint) is immutable and safe to solve on concurrently.
	if s.deviceOverride == nil {
		proto, err := s.newController()
		if err != nil {
			return nil, err
		}
		for i := range f.ctls {
			f.ctls[i] = *proto
		}
		return f, nil
	}
	for i := range f.ctls {
		// Refine a copy of the fleet-wide settings with the device's own
		// options.
		ds := *s
		if err := ds.apply(s.deviceOverride(i)); err != nil {
			return nil, fmt.Errorf("device %d: %w", i, err)
		}
		ctl, err := ds.newController()
		if err != nil {
			return nil, fmt.Errorf("device %d: %w", i, err)
		}
		f.ctls[i] = *ctl
	}
	return f, nil
}

// Size returns the number of devices in the fleet.
func (f *Fleet) Size() int { return len(f.ctls) }

// Device returns device i's controller, for per-device inspection and
// tuning (battery level, SetAlpha); every call for one device returns
// the same pointer, into the fleet's controller slab. Out-of-range
// indices return an error wrapping ErrInvalidConfig. The controller is
// not safe to step concurrently with StepAll.
func (f *Fleet) Device(i int) (*Controller, error) {
	if i < 0 || i >= len(f.ctls) {
		return nil, fmt.Errorf("%w: device %d out of range [0, %d)", ErrInvalidConfig, i, len(f.ctls))
	}
	return &f.ctls[i], nil
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
// solves run on a worker pool of up to GOMAXPROCS goroutines, one per
// chunk of 256 devices.
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
	errs := f.tickErrs()
	// Devices start in index order on both paths, so the stepped ones
	// are the first ran.
	ran, workers := 0, runtime.GOMAXPROCS(0)
	if poolWidth(workers, len(f.ctls)) == 1 {
		for ; ran < len(f.ctls) && ctx.Err() == nil; ran++ {
			f.stepOne(ctx, ran, budgets[ran], &allocs[ran])
		}
	} else {
		ran = poolRun(ctx, workers, len(f.ctls), func(lo, hi int) { //lint:reapvet hotalloc -- one closure per multi-worker tick, not per device
			for i := lo; i < hi; i++ {
				f.stepOne(ctx, i, budgets[i], &allocs[i])
			}
		})
	}
	if ran < len(f.ctls) {
		err := ctx.Err()
		for i := ran; i < len(errs); i++ {
			allocs[i] = Allocation{}
			errs[i] = fmt.Errorf("device %d: not stepped: %w", i, err) //lint:reapvet hotalloc -- cold cancellation path
		}
	}
	return errors.Join(errs...)
}

// stepOne plans device i's period into dst, or resets dst if the
// device is inactive; a failure lands in the tick's errs[i].
//
//reap:hotpath
func (f *Fleet) stepOne(ctx context.Context, i int, budget float64, dst *Allocation) {
	if f.active != nil && !f.active[i] {
		*dst = Allocation{}
		return
	}
	if err := f.ctls[i].StepInto(ctx, budget, dst); err != nil {
		f.errs[i] = fmt.Errorf("device %d: %w", i, err) //lint:reapvet hotalloc -- cold error path
	}
}

// tickErrs returns the per-device error scratch, cleared, making it on
// the fleet's first tick.
//
//reap:hotpath
func (f *Fleet) tickErrs() []error {
	if f.errs == nil {
		f.errs = make([]error, len(f.ctls)) //lint:reapvet hotalloc -- made once, on the first tick; every later tick reuses it
	}
	clear(f.errs)
	return f.errs
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
	errs := f.tickErrs()
	for i := range f.ctls {
		if f.active != nil && !f.active[i] {
			continue
		}
		if err := f.ctls[i].Report(consumed[i]); err != nil {
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

// poolChunk is how many indices a worker claims at a time. A plan step
// costs ~0.1–0.2 µs, so per-index handoff through a channel would cost
// more than the work; chunked claims off an atomic counter amortize the
// coordination while keeping the pool balanced. A second worker costs
// ~50 µs of CPU per tick on a 2-vCPU host, more than a 96-device
// tick's solves, so work of up to one chunk, 256 indices, runs inline
// on the caller; 1,024-index chunks gave up parallelism that pays at
// 1,000 indices.
const poolChunk = 256

// poolWidth caps a pool of workers at one per chunk of n indices: a
// worker past the last chunk would start, find nothing to claim and
// exit.
func poolWidth(workers, n int) int {
	return min(workers, (n+poolChunk-1)/poolChunk)
}

// poolRun fans indices 0..n-1 out to the given number of workers, but
// never to more than one per chunk: each call work(lo, hi) runs one
// chunk [lo, hi). Chunks are claimed in index order and run whole, and
// a cancelled ctx stops the claiming, so the indices that ran are a
// prefix: poolRun returns its length, n unless ctx was cancelled. A
// pool of one, which is all that work of one chunk gets, runs inline
// on the calling goroutine.
func poolRun(ctx context.Context, workers, n int, work func(lo, hi int)) int {
	if workers = poolWidth(workers, n); workers <= 1 {
		for lo := 0; lo < n; lo += poolChunk {
			if ctx.Err() != nil {
				return lo
			}
			work(lo, min(lo+poolChunk, n))
		}
		return n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				lo := int(next.Add(poolChunk)) - poolChunk
				if lo >= n {
					return
				}
				work(lo, min(lo+poolChunk, n))
			}
		}()
	}
	wg.Wait()
	return min(int(next.Load()), n)
}

// Request is one independent solve in a SolveBatch call.
type Request struct {
	// Config for the solve; the zero value selects the paper defaults
	// (DefaultConfig).
	Config Config
	// Budget is the energy available for the period, in joules.
	Budget float64
}

// Result pairs a Request's allocation with its error; exactly one of the
// two is meaningful.
type Result struct {
	Allocation Allocation
	Err        error
}

// SolveBatch solves many independent allocation problems on a worker pool
// of up to GOMAXPROCS goroutines, one per chunk of 256 requests (a batch
// of one chunk runs on the calling goroutine) — the stateless
// counterpart of Fleet.StepAll for embarrassingly parallel workloads
// (budget sweeps, what-if grids, serving stateless solve RPCs).
// results[i] answers reqs[i]; cancelling the context marks every
// unstarted request with ctx.Err().
//
// Each request solves as Solve does, on the plan core.PlanFor memoizes
// per configuration fingerprint, so a sweep of N budgets over one
// Config pays one compilation and N binary-search solves.
func SolveBatch(ctx context.Context, reqs []Request) []Result {
	results := make([]Result, len(reqs))
	var defaultCfg Config // the paper defaults, built only if a request has a zero Config
	for i := range reqs {
		if isZeroConfig(reqs[i].Config) {
			defaultCfg = core.DefaultConfig()
			break
		}
	}
	ran := poolRun(ctx, runtime.GOMAXPROCS(0), len(reqs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cfg := reqs[i].Config
			if isZeroConfig(cfg) {
				cfg = defaultCfg
			}
			alloc, err := Solve(ctx, cfg, reqs[i].Budget)
			results[i] = Result{Allocation: alloc, Err: err}
		}
	})
	// Requests the pool never started (context cancelled mid-batch) carry
	// the context error so callers can tell them from successes.
	if ran < len(reqs) {
		err := ctx.Err()
		for i := ran; i < len(results); i++ {
			results[i].Err = err
		}
	}
	return results
}

func isZeroConfig(c Config) bool {
	return fpx.Zero(c.Period) && fpx.Zero(c.POff) && fpx.Zero(c.Alpha) && c.DPs == nil
}

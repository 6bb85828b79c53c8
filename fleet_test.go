package reap

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFleetStepAllMatchesSequential checks that the concurrent fleet path
// produces exactly the schedules a sequential per-device loop would, over
// 1000 devices spanning every operating region. Run under -race this is
// also the fleet's data-race test.
func TestFleetStepAllMatchesSequential(t *testing.T) {
	const n = 1000
	ctx := context.Background()

	fleet, err := NewFleet(n, WithBattery(20, 100))
	if err != nil {
		t.Fatal(err)
	}
	budgets := make([]float64, n)
	for i := range budgets {
		budgets[i] = 11.0 * float64(i) / n // dead region through saturation
	}

	allocs, err := fleet.StepAll(ctx, budgets)
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != n {
		t.Fatalf("%d allocations for %d devices", len(allocs), n)
	}

	for i, alloc := range allocs {
		ref, err := New(WithBattery(20, 100))
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Step(budgets[i])
		if err != nil {
			t.Fatal(err)
		}
		dev, err := fleet.Device(i)
		if err != nil {
			t.Fatal(err)
		}
		cfg := dev.Config()
		if math.Abs(alloc.Objective(cfg)-want.Objective(cfg)) > 1e-12 {
			t.Fatalf("device %d: fleet %v, sequential %v", i, alloc, want)
		}
	}

	// Second period: the per-device battery state must have evolved
	// independently and ReportAll must close every loop.
	consumed := make([]float64, n)
	for i, alloc := range allocs {
		dev, err := fleet.Device(i)
		if err != nil {
			t.Fatal(err)
		}
		consumed[i] = alloc.Energy(dev.Config())
	}
	if err := fleet.ReportAll(consumed); err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.StepAll(ctx, budgets); err != nil {
		t.Fatal(err)
	}
	dev0, err := fleet.Device(0)
	if err != nil {
		t.Fatal(err)
	}
	if dev0.Steps() != 2 {
		t.Fatalf("device 0 stepped %d times, want 2", dev0.Steps())
	}
}

// TestFleetDeviceOutOfRange is the regression test for the Device panic:
// out-of-range indices must return an ErrInvalidConfig error, not panic.
func TestFleetDeviceOutOfRange(t *testing.T) {
	fleet, err := NewFleet(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{-1, 3, 1000} {
		dev, err := fleet.Device(i)
		if !errors.Is(err, ErrInvalidConfig) {
			t.Fatalf("Device(%d): err %v, want ErrInvalidConfig", i, err)
		}
		if dev != nil {
			t.Fatalf("Device(%d) returned a controller with its error", i)
		}
	}
	if dev, err := fleet.Device(2); err != nil || dev == nil {
		t.Fatalf("Device(2) = %v, %v, want a controller", dev, err)
	}
}

func TestFleetStepAllWorkerBounds(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		fleet, err := NewFleet(50, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		budgets := make([]float64, 50)
		for i := range budgets {
			budgets[i] = 5
		}
		allocs, err := fleet.StepAll(context.Background(), budgets)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, a := range allocs {
			if a.Total() == 0 {
				t.Fatalf("workers=%d: device %d unplanned", workers, i)
			}
		}
	}
}

func TestFleetStepAllBudgetMismatch(t *testing.T) {
	fleet, err := NewFleet(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.StepAll(context.Background(), []float64{1, 2}); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("mismatched budgets: err %v, want ErrInvalidConfig", err)
	}
	if err := fleet.ReportAll([]float64{1}); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("mismatched reports: err %v, want ErrInvalidConfig", err)
	}
}

func TestFleetStepAllPartialFailure(t *testing.T) {
	fleet, err := NewFleet(5)
	if err != nil {
		t.Fatal(err)
	}
	budgets := []float64{5, math.NaN(), 5, -1, 5}
	allocs, err := fleet.StepAll(context.Background(), budgets)
	if err == nil {
		t.Fatal("bad budgets accepted")
	}
	if !errors.Is(err, ErrBudgetNegative) {
		t.Fatalf("err %v, want ErrBudgetNegative in the chain", err)
	}
	// The error names the failing devices; the healthy ones still planned.
	for _, d := range []string{"device 1", "device 3"} {
		if !strings.Contains(err.Error(), d) {
			t.Errorf("error %q does not name %s", err, d)
		}
	}
	for _, i := range []int{0, 2, 4} {
		if allocs[i].Total() == 0 {
			t.Errorf("healthy device %d unplanned", i)
		}
	}
}

func TestFleetStepAllCancelled(t *testing.T) {
	fleet, err := NewFleet(100, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	budgets := make([]float64, 100)
	if _, err := fleet.StepAll(ctx, budgets); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled StepAll: err %v, want context.Canceled", err)
	}
}

func TestSolveBatchMatchesDirectSolve(t *testing.T) {
	ctx := context.Background()
	cfg, err := NewConfig()
	if err != nil {
		t.Fatal(err)
	}
	solver := LookupSolverMust(t, SolverSimplex)

	reqs := make([]Request, 200)
	for i := range reqs {
		reqs[i] = Request{Budget: 11.0 * float64(i) / float64(len(reqs))}
	}
	results := SolveBatch(ctx, reqs)
	if len(results) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(results), len(reqs))
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		want, err := solver.Solve(ctx, cfg, reqs[i].Budget)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Allocation.Objective(cfg)-want.Objective(cfg)) > 1e-12 {
			t.Fatalf("request %d: batch %v, direct %v", i, res.Allocation, want)
		}
	}
}

func TestSolveBatchEmpty(t *testing.T) {
	if results := SolveBatch(context.Background(), nil); len(results) != 0 {
		t.Fatalf("empty batch returned %d results", len(results))
	}
}

// The registry is append-only and process-global, so tests that need a
// bespoke backend register one hooked solver once and swap its behaviour
// per test run (keeps -count=N reruns working).
var (
	registerHookedSolverOnce sync.Once
	hookedSolve              atomic.Pointer[SolverFunc]
)

const hookedSolverName = "test-hooked"

func registerHookedSolver(t *testing.T) {
	t.Helper()
	registerHookedSolverOnce.Do(func() {
		err := RegisterSolver(hookedSolverName, SolverFunc(
			func(ctx context.Context, cfg Config, budget float64) (Allocation, error) {
				return (*hookedSolve.Load())(ctx, cfg, budget)
			}))
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestSolveBatchCancellationMidBatch cancels the context from inside the
// tenth solve: items completed before the cancellation keep their
// results, everything else — abandoned or refused mid-flight — reports
// context.Canceled.
func TestSolveBatchCancellationMidBatch(t *testing.T) {
	registerHookedSolver(t)
	simplex := LookupSolverMust(t, SolverSimplex)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const n, cancelAt = 200, 10
	var solves atomic.Int32
	fn := SolverFunc(func(ctx context.Context, cfg Config, budget float64) (Allocation, error) {
		// Solve first, cancel after: the counted solves are guaranteed to
		// complete, so the assertions below are race-free on any core
		// count (in-flight workers may still finish their current solve
		// after the cancellation — bounded by the pool width).
		alloc, err := simplex.Solve(ctx, cfg, budget)
		if err == nil && solves.Add(1) == cancelAt {
			cancel()
		}
		return alloc, err
	})
	hookedSolve.Store(&fn)

	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Budget: 5, Solver: hookedSolverName}
	}
	results := SolveBatch(ctx, reqs)
	if len(results) != n {
		t.Fatalf("%d results for %d requests", len(results), n)
	}

	var completed, cancelled int
	for i, res := range results {
		switch {
		case res.Err == nil:
			if res.Allocation.Total() == 0 {
				t.Fatalf("request %d: no error but empty allocation", i)
			}
			completed++
		case errors.Is(res.Err, context.Canceled):
			if res.Allocation.Total() != 0 {
				t.Fatalf("request %d: cancelled but carries an allocation", i)
			}
			cancelled++
		default:
			t.Fatalf("request %d: unexpected error %v", i, res.Err)
		}
	}
	if completed < cancelAt {
		t.Fatalf("%d completed, want at least the %d solves that finished before cancellation", completed, cancelAt)
	}
	// Workers already inside a solve when the cancellation landed may
	// finish it; anything beyond one per worker means the pool kept
	// dispatching after cancellation.
	if limit := cancelAt + runtime.GOMAXPROCS(0); completed > limit {
		t.Fatalf("%d completed, want at most %d after cancellation at solve %d", completed, limit, cancelAt)
	}
	if cancelled == 0 {
		t.Fatal("no request observed the cancellation")
	}
}

// TestFleetDevicesIsolated: the devices of a fleet are copies of one
// prototype sharing its design points and plan, so stepping, reporting,
// SetAlpha and Restore on one device must leave every other device's
// state untouched, and Device(i) must hand out one stable pointer.
func TestFleetDevicesIsolated(t *testing.T) {
	const n, target = 5, 2
	fleet, err := NewFleet(n, WithBattery(20, 100))
	if err != nil {
		t.Fatal(err)
	}
	device := func(i int) *Controller {
		t.Helper()
		ctl, err := fleet.Device(i)
		if err != nil {
			t.Fatal(err)
		}
		return ctl
	}
	before := make([]ControllerState, n)
	for i := range before {
		if device(i) != device(i) {
			t.Fatalf("Device(%d) returned two different pointers", i)
		}
		before[i] = device(i).State()
	}
	ctl := device(target)
	ops := []struct {
		name string
		op   func() error
	}{
		{"Step", func() error { _, err := ctl.Step(3); return err }},
		{"Report", func() error { return ctl.Report(0.5) }},
		{"SetAlpha", func() error { return ctl.SetAlpha(2) }},
		{"Restore", func() error {
			return ctl.Restore(ControllerState{BatteryJ: 50, CarryJ: 1, LastPlannedJ: 2, LastBudgetJ: 4, Steps: 7, Alpha: 0.5})
		}},
	}
	for _, o := range ops {
		if err := o.op(); err != nil {
			t.Fatalf("%s: %v", o.name, err)
		}
		for i := range before {
			if i == target {
				continue
			}
			if got := device(i).State(); got != before[i] {
				t.Fatalf("%s on device %d changed device %d: %+v, was %+v", o.name, target, i, got, before[i])
			}
		}
	}
	if got := device(target).State(); got == before[target] {
		t.Fatalf("device %d state unchanged after every operation: %+v", target, got)
	}
	if device(target) != ctl {
		t.Fatal("Device returned a different pointer after the operations")
	}
}

// TestSolveBatchBackendRuns: a batch whose requests name backends in
// runs of every length, across chunk boundaries and with an unknown
// name among them, answers each request on its own backend and gives
// each unknown one its own ErrUnknownSolver.
func TestSolveBatchBackendRuns(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	names := []string{"", SolverPlan, "no-such-backend", SolverSimplex, SolverEnumerate, "no-such-backend"}
	var reqs []Request
	for run := 1; len(reqs) < 300; run++ {
		name := names[run%len(names)]
		for k := 0; k < run%70; k++ {
			reqs = append(reqs, Request{Budget: 11 * float64(len(reqs)%97) / 97, Solver: name})
		}
	}
	results := SolveBatch(ctx, reqs)
	for i, req := range reqs {
		res := results[i]
		if req.Solver == "no-such-backend" {
			if !errors.Is(res.Err, ErrUnknownSolver) {
				t.Fatalf("request %d (%q): error %v, want ErrUnknownSolver", i, req.Solver, res.Err)
			}
			continue
		}
		if res.Err != nil {
			t.Fatalf("request %d (%q): %v", i, req.Solver, res.Err)
		}
		name := req.Solver
		if name == "" {
			name = DefaultSolver
		}
		want, err := LookupSolverMust(t, name).Solve(ctx, cfg, req.Budget)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Allocation.Objective(cfg)-want.Objective(cfg)) > 1e-12 {
			t.Fatalf("request %d (%q): batch %v, direct %v", i, req.Solver, res.Allocation, want)
		}
	}
}

// activeCount counts the devices of f that take part in fleet steps.
func activeCount(f *Fleet) int {
	n := 0
	for i := 0; i < f.Size(); i++ {
		if f.Active(i) {
			n++
		}
	}
	return n
}

// TestFleetSetActive covers the churn seam: inactive devices get the
// zero allocation from StepAll, are skipped by ReportAll (battery and
// accounting frozen), and resume exactly where they left off.
func TestFleetSetActive(t *testing.T) {
	ctx := context.Background()
	fleet, err := NewFleet(3, WithBattery(20, 100))
	if err != nil {
		t.Fatal(err)
	}
	if n := activeCount(fleet); n != 3 {
		t.Fatalf("fresh fleet has %d active devices, want 3", n)
	}
	if !fleet.Active(0) || fleet.Active(-1) || fleet.Active(3) {
		t.Fatal("activity of fresh fleet / out-of-range devices misreported")
	}
	if err := fleet.SetActive(1, false); err != nil {
		t.Fatal(err)
	}
	if fleet.Active(1) || activeCount(fleet) != 2 {
		t.Fatalf("device 1 still counted active after SetActive(false)")
	}
	if err := fleet.SetActive(3, false); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("out-of-range SetActive: got %v, want ErrInvalidConfig", err)
	}

	dev1, err := fleet.Device(1)
	if err != nil {
		t.Fatal(err)
	}
	before := dev1.Battery()

	budgets := []float64{5, 5, 5}
	allocs, err := fleet.StepAll(ctx, budgets)
	if err != nil {
		t.Fatal(err)
	}
	if got := (Allocation{}); len(allocs[1].Active) != 0 || allocs[1].Off != got.Off || allocs[1].Dead != got.Dead {
		t.Fatalf("inactive device planned %+v, want zero allocation", allocs[1])
	}
	if len(allocs[0].Active) == 0 && allocs[0].Off == 0 && allocs[0].Dead == 0 {
		t.Fatal("active device 0 got a zero allocation")
	}
	if err := fleet.ReportAll([]float64{4, 999, 4}); err != nil {
		t.Fatal(err)
	}
	if after := dev1.Battery(); after != before {
		t.Fatalf("inactive device's battery moved: %v -> %v", before, after)
	}

	// Reactivation resumes from the frozen state.
	if err := fleet.SetActive(1, true); err != nil {
		t.Fatal(err)
	}
	if activeCount(fleet) != 3 {
		t.Fatal("reactivated device not counted")
	}
	allocs, err = fleet.StepAll(ctx, budgets)
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs[1].Active) == 0 && allocs[1].Off == 0 && allocs[1].Dead == 0 {
		t.Fatal("reactivated device still got the zero allocation")
	}

	// SetActive(true) on a fleet that never churned stays nil-masked
	// (the zero-cost hot path) and is a no-op.
	fresh, err := NewFleet(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.SetActive(0, true); err != nil {
		t.Fatal(err)
	}
	if activeCount(fresh) != 2 {
		t.Fatal("no-op SetActive(true) changed membership")
	}
}

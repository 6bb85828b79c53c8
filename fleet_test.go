package reap

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
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

// TestFleetStepAllWorkerBounds: at 1,000 devices, 16 pool chunks, every
// worker count, including more workers than chunks, plans each device
// bit for bit as the one-worker fleet does, tick after tick.
func TestFleetStepAllWorkerBounds(t *testing.T) {
	const n = 1000
	budgets := make([]float64, n)
	for i := range budgets {
		budgets[i] = 11.0 * float64(i) / n // dead region through saturation
	}
	bits := func(a Allocation) []uint64 {
		out := []uint64{math.Float64bits(a.Off), math.Float64bits(a.Dead)}
		for _, v := range a.Active {
			out = append(out, math.Float64bits(v))
		}
		return out
	}
	var want [2][]Allocation // the one-worker fleet's two ticks
	for _, workers := range []int{1, 2, 7, 64} {
		// A battery small against the 9.94 J a device can spend, so
		// every budget moves its device's schedule.
		fleet, err := NewFleet(n, WithBattery(1, 5), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for tick := range want {
			allocs, err := fleet.StepAll(context.Background(), budgets)
			if err != nil {
				t.Fatalf("workers=%d tick %d: %v", workers, tick, err)
			}
			if workers == 1 {
				want[tick] = allocs
				continue
			}
			for i, a := range allocs {
				if !slices.Equal(bits(a), bits(want[tick][i])) {
					t.Fatalf("workers=%d tick %d device %d: %+v, one worker planned %+v",
						workers, tick, i, a, want[tick][i])
				}
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
		want, err := core.SolveContext(ctx, cfg, reqs[i].Budget)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Allocation.Objective(cfg)-want.Objective(cfg)) > 1e-12 {
			t.Fatalf("request %d: batch %v, simplex %v", i, res.Allocation, want)
		}
	}
}

func TestSolveBatchEmpty(t *testing.T) {
	if results := SolveBatch(context.Background(), nil); len(results) != 0 {
		t.Fatalf("empty batch returned %d results", len(results))
	}
}

// countdownCtx is a context whose Err turns context.Canceled once it
// has answered nil left times, so a test can cancel a batch at a known
// point with no hook inside SolveBatch.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSolveBatchCancellationMidBatch cancels a batch partway: SolveBatch
// reads the context once per chunk it claims and Solve once per request,
// so at most the first cancelAt reads find it live. Items completed
// before the cancellation keep their results, and everything else —
// abandoned or refused mid-flight — reports context.Canceled.
func TestSolveBatchCancellationMidBatch(t *testing.T) {
	const n, cancelAt = 200, 10
	ctx := &countdownCtx{Context: context.Background()}
	ctx.left.Store(cancelAt)

	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Budget: 11 * float64(i) / n}
	}
	results := SolveBatch(ctx, reqs)
	if len(results) != n {
		t.Fatalf("%d results for %d requests", len(results), n)
	}

	var completed, cancelled int
	for i, res := range results {
		switch {
		case res.Err == nil:
			want, err := Solve(context.Background(), DefaultConfig(), reqs[i].Budget)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Allocation, want) {
				t.Fatalf("request %d: completed with %v, want %v", i, res.Allocation, want)
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
	// Every completed solve read a live context, and so did the pool's
	// first claim.
	if completed == 0 || completed >= cancelAt {
		t.Fatalf("%d completed, want between 1 and %d", completed, cancelAt-1)
	}
	if cancelled != n-completed {
		t.Fatalf("%d cancelled and %d completed of %d", cancelled, completed, n)
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

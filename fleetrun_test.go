package reap

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/solar"
)

func TestWithDeviceOverride(t *testing.T) {
	fleet, err := NewFleet(4,
		WithAlpha(1),
		WithBattery(10, 50),
		WithDeviceOverride(func(i int) []Option {
			if i%2 == 1 {
				return []Option{WithAlpha(2), WithBattery(20, 100)}
			}
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		dev, err := fleet.Device(i)
		if err != nil {
			t.Fatal(err)
		}
		wantAlpha, wantBattery := 1.0, 10.0
		if i%2 == 1 {
			wantAlpha, wantBattery = 2, 20
		}
		if got := dev.Config().Alpha; got != wantAlpha {
			t.Errorf("device %d alpha %v, want %v", i, got, wantAlpha)
		}
		if got := dev.Battery(); got != wantBattery {
			t.Errorf("device %d battery %v, want %v", i, got, wantBattery)
		}
	}
}

func TestWithDeviceOverrideErrors(t *testing.T) {
	if _, err := NewFleet(1, WithDeviceOverride(nil)); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("nil override: %v", err)
	}
	_, err := NewFleet(3, WithDeviceOverride(func(i int) []Option {
		if i == 2 {
			return []Option{WithBattery(-1, 10)}
		}
		return nil
	}))
	if !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("bad per-device option: %v", err)
	}
	if err == nil || err.Error()[:8] != "device 2" {
		t.Fatalf("error %v does not name the failing device", err)
	}
}

// recordedLoop implements HarvestSource and ConsumptionModel for
// Fleet.Run tests: fixed budgets, consumption equal to plan.
type recordedLoop struct {
	budget float64
	cfg    Config
	failAt int // step whose Budgets call fails; -1 for never
}

func (r *recordedLoop) Budgets(step int, dst []float64) error {
	if step == r.failAt {
		return fmt.Errorf("harvest offline")
	}
	for i := range dst {
		dst[i] = r.budget
	}
	return nil
}

func (r *recordedLoop) Consumed(_ int, allocs []Allocation, dst []float64) error {
	for i := range dst {
		dst[i] = allocs[i].Energy(r.cfg)
	}
	return nil
}

func TestFleetRun(t *testing.T) {
	fleet, err := NewFleet(3)
	if err != nil {
		t.Fatal(err)
	}
	loop := &recordedLoop{budget: 5, cfg: DefaultConfig(), failAt: -1}
	var steps []int
	err = fleet.Run(context.Background(), 4, loop, loop,
		func(step int, budgets []float64, allocs []Allocation, consumed []float64) error {
			steps = append(steps, step)
			if len(budgets) != 3 || len(allocs) != 3 || len(consumed) != 3 {
				t.Fatalf("step %d: slice lengths %d/%d/%d", step, len(budgets), len(allocs), len(consumed))
			}
			if consumed[0] != allocs[0].Energy(loop.cfg) {
				t.Fatalf("step %d: consumption not from the model", step)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 4 || steps[0] != 0 || steps[3] != 3 {
		t.Fatalf("observer saw steps %v, want [0 1 2 3]", steps)
	}
	dev, err := fleet.Device(0)
	if err != nil {
		t.Fatal(err)
	}
	if dev.Steps() != 4 {
		t.Fatalf("device stepped %d times, want 4", dev.Steps())
	}
}

func TestFleetRunErrors(t *testing.T) {
	fleet, err := NewFleet(2)
	if err != nil {
		t.Fatal(err)
	}
	loop := &recordedLoop{budget: 5, cfg: DefaultConfig(), failAt: 2}
	err = fleet.Run(context.Background(), 5, loop, loop, nil)
	if err == nil || err.Error()[:6] != "step 2" {
		t.Fatalf("source failure: %v", err)
	}
	if dev, _ := fleet.Device(0); dev.Steps() != 2 {
		t.Fatalf("run continued past the failing step: %d steps", dev.Steps())
	}
	if err := fleet.Run(context.Background(), 1, nil, loop, nil); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("nil source: %v", err)
	}
	if err := fleet.Run(context.Background(), 1, loop, nil, nil); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("nil model: %v", err)
	}
	if err := fleet.Run(context.Background(), -1, loop, loop, nil); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("negative steps: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	loop2 := &recordedLoop{budget: 5, cfg: DefaultConfig(), failAt: -1}
	if err := fleet.Run(ctx, 3, loop2, loop2, nil); err == nil {
		t.Fatal("cancelled Run reported success")
	}
}

// traceLoop replays one harvest trace to a one-device fleet and reports
// consumption equal to plan.
type traceLoop struct {
	harvest []float64
	cfg     Config
}

func (l *traceLoop) Budgets(step int, dst []float64) error {
	dst[0] = l.harvest[step]
	return nil
}

func (l *traceLoop) Consumed(_ int, allocs []Allocation, dst []float64) error {
	dst[0] = allocs[0].Energy(l.cfg)
	return nil
}

// TestDeviceRunMatchesFleetRun pins the simulated device's closed loop
// to the fleet's: one September through device.Run and through Fleet.Run
// at N=1, consumption equal to plan, must agree bit for bit every hour
// in budget, allocation, consumption and battery, on the plan and
// simplex backends at several α. Both loops step a Controller, so this
// is one battery-accounting implementation checked from both sides.
func TestDeviceRunMatchesFleetRun(t *testing.T) {
	tr, err := solar.September2015()
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, backend := range []string{SolverPlan, SolverSimplex} {
		for _, alpha := range []float64{0, 0.5, 1, 2, 8} {
			opts := []Option{WithAlpha(alpha), WithBattery(20, 100), WithSolver(backend)}
			ctl, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := device.Run(ctl, tr.Hours, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			fleet, err := NewFleet(1, opts...)
			if err != nil {
				t.Fatal(err)
			}
			dev, err := fleet.Device(0)
			if err != nil {
				t.Fatal(err)
			}
			loop := &traceLoop{harvest: tr.Hours, cfg: dev.Config()}
			err = fleet.Run(context.Background(), len(tr.Hours), loop, loop,
				func(step int, _ []float64, allocs []Allocation, consumed []float64) error {
					h, a := want.Hours[step], allocs[0]
					if !same(h.Budget, dev.LastBudget()) || !same(h.Consumed, consumed[0]) ||
						!same(h.Battery, dev.Battery()) {
						return fmt.Errorf("budget/consumed/battery %v/%v/%v, fleet %v/%v/%v",
							h.Budget, h.Consumed, h.Battery, dev.LastBudget(), consumed[0], dev.Battery())
					}
					ok := same(h.Alloc.Off, a.Off) && same(h.Alloc.Dead, a.Dead) &&
						len(h.Alloc.Active) == len(a.Active)
					for i := 0; ok && i < len(a.Active); i++ {
						ok = same(h.Alloc.Active[i], a.Active[i])
					}
					if !ok {
						return fmt.Errorf("allocation %v, fleet %v", h.Alloc, a)
					}
					return nil
				})
			if err != nil {
				t.Errorf("%s, alpha %v: %v", backend, alpha, err)
			}
		}
	}
}

package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/fpx"
)

// TestStateRestoreRoundTrip pins the crash-recovery contract: a fresh
// controller restored from another's State is indistinguishable from it
// — same battery, same carry, and byte-identical allocations for the
// same future harvests.
func TestStateRestoreRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	live := newTestController(t, cfg, 30, 100)
	// Drive some history: steps, a consumption report, an alpha change.
	for _, h := range []float64{2, 5, 0.5} {
		if _, err := live.Step(h); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.Report(1.25); err != nil {
		t.Fatal(err)
	}
	if err := live.SetAlpha(0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := live.Step(3); err != nil {
		t.Fatal(err)
	}

	restored := newTestController(t, cfg, 0, 100)
	if err := restored.Restore(live.State()); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got, want := restored.State(), live.State(); got != want {
		t.Fatalf("restored state %+v != live state %+v", got, want)
	}
	if !fpx.Eq(restored.Battery(), live.Battery()) {
		t.Errorf("battery %v != %v", restored.Battery(), live.Battery())
	}
	if restored.Steps() != live.Steps() {
		t.Errorf("steps %d != %d", restored.Steps(), live.Steps())
	}

	// Future behavior must agree exactly.
	for _, h := range []float64{1, 4, 0} {
		a1, err1 := live.Step(h)
		a2, err2 := restored.Step(h)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("step(%v): errors diverge: %v vs %v", h, err1, err2)
		}
		if !fpx.Eq(a1.Off, a2.Off) || !fpx.Eq(a1.Dead, a2.Dead) || len(a1.Active) != len(a2.Active) {
			t.Fatalf("step(%v): allocations diverge: %+v vs %+v", h, a1, a2)
		}
		for i := range a1.Active {
			if !fpx.Eq(a1.Active[i], a2.Active[i]) {
				t.Fatalf("step(%v): active[%d] %v != %v", h, i, a1.Active[i], a2.Active[i])
			}
		}
	}
}

func TestRestoreRejectsInvalidState(t *testing.T) {
	ctl := newTestController(t, DefaultConfig(), 10, 100)
	bad := []ControllerState{
		{BatteryJ: -1, Alpha: 1},
		{BatteryJ: 101, Alpha: 1},        // over capacity
		{BatteryJ: math.NaN(), Alpha: 1}, // NaN battery
		{BatteryJ: 5, CarryJ: math.NaN(), Alpha: 1},
		{BatteryJ: 5, Steps: -1, Alpha: 1},
		{BatteryJ: 5, Alpha: -2}, // invalid alpha
		{BatteryJ: 5, Alpha: math.NaN()},
	}
	before := ctl.State()
	for _, st := range bad {
		if err := ctl.Restore(st); err == nil {
			t.Errorf("Restore(%+v): want error", st)
		}
	}
	if ctl.State() != before {
		t.Error("failed Restore mutated controller state")
	}
}

// TestRestoreRecompilesPlan checks the alpha path: a controller restored
// to a different alpha must solve under the new alpha, matching a
// controller configured that way from scratch.
func TestRestoreRecompilesPlan(t *testing.T) {
	cfg := DefaultConfig()
	withPlan := func(alpha float64) *Controller {
		c := cfg
		c.Alpha = alpha
		return newTestController(t, c, 20, 100)
	}
	restored := withPlan(1)
	st := ControllerState{BatteryJ: 20, Alpha: 0.25}
	if err := restored.Restore(st); err != nil {
		t.Fatal(err)
	}
	reference := withPlan(0.25)

	a1, err := restored.Step(4)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := reference.Step(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1.Active {
		if !fpx.Eq(a1.Active[i], a2.Active[i]) {
			t.Fatalf("active[%d]: restored-plan %v != reference %v", i, a1.Active[i], a2.Active[i])
		}
	}
}

// TestRefusesInfiniteState: a snapshot, an α update, a harvest or an
// initial charge that carries ±Inf is refused like NaN, and the
// controller keeps its state and plan. Restored from a snapshot, a +Inf
// carry would plan DP1 for the whole hour on a 2 J budget.
func TestRefusesInfiniteState(t *testing.T) {
	inf := math.Inf(1)
	restore := func(st ControllerState) func(*Controller) error {
		return func(ct *Controller) error { return ct.Restore(st) }
	}
	cases := []struct {
		name  string
		apply func(*Controller) error
		want  error
	}{
		{"restore carry +Inf", restore(ControllerState{BatteryJ: 1, CarryJ: inf, Alpha: 1}), ErrInvalidConfig},
		{"restore carry -Inf", restore(ControllerState{BatteryJ: 1, CarryJ: -inf, Alpha: 1}), ErrInvalidConfig},
		{"restore planned +Inf", restore(ControllerState{BatteryJ: 1, LastPlannedJ: inf, Alpha: 1}), ErrInvalidConfig},
		{"restore planned -Inf", restore(ControllerState{BatteryJ: 1, LastPlannedJ: -inf, Alpha: 1}), ErrInvalidConfig},
		{"restore budget +Inf", restore(ControllerState{BatteryJ: 1, LastBudgetJ: inf, Alpha: 1}), ErrInvalidConfig},
		{"restore budget -Inf", restore(ControllerState{BatteryJ: 1, LastBudgetJ: -inf, Alpha: 1}), ErrInvalidConfig},
		{"restore alpha +Inf", restore(ControllerState{BatteryJ: 1, Alpha: inf}), ErrInvalidConfig},
		{"set alpha +Inf", func(ct *Controller) error { return ct.SetAlpha(inf) }, ErrInvalidConfig},
		{"validate alpha +Inf", func(ct *Controller) error {
			c := ct.Config()
			c.Alpha = inf
			return c.Validate()
		}, ErrInvalidConfig},
		{"step harvest +Inf", func(ct *Controller) error {
			_, err := ct.Step(inf)
			return err
		}, ErrBudgetNegative},
		{"new controller charge +Inf", func(ct *Controller) error {
			_, err := NewController(ct.Config(), inf, inf)
			return err
		}, ErrInvalidConfig},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ct := newTestController(t, DefaultConfig(), 1, 100)
			before, plan := ct.State(), ct.plan
			if err := tc.apply(ct); !errors.Is(err, tc.want) {
				t.Fatalf("err %v, want %v", err, tc.want)
			}
			if ct.State() != before || ct.plan != plan {
				t.Errorf("refused update changed the controller: %+v, want %+v", ct.State(), before)
			}
		})
	}
}

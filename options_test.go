package reap

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
)

func TestNewConfigDefaultsMatchPaper(t *testing.T) {
	cfg, err := NewConfig()
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultConfig()
	if cfg.Period != want.Period || cfg.POff != want.POff || cfg.Alpha != want.Alpha {
		t.Fatalf("NewConfig() = %+v, want the paper defaults %+v", cfg, want)
	}
	if len(cfg.DPs) != 5 || cfg.DPs[0].Name != "DP1" {
		t.Fatalf("NewConfig() design points %v", cfg.DPs)
	}
}

func TestOptionCombinators(t *testing.T) {
	dps := []DesignPoint{
		{Name: "hi", Accuracy: 0.9, Power: 2e-3},
		{Name: "lo", Accuracy: 0.6, Power: 1e-3},
	}
	cfg, err := NewConfig(
		WithPeriod(1800),
		WithOffPower(1e-5),
		WithAlpha(2),
		WithDesignPoints(dps...),
	)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Period != 1800 || cfg.POff != 1e-5 || cfg.Alpha != 2 || len(cfg.DPs) != 2 {
		t.Fatalf("options not applied: %+v", cfg)
	}
	// The DP slice must be a copy: mutating the caller's slice afterwards
	// must not reach the config.
	dps[0].Accuracy = 0
	if cfg.DPs[0].Accuracy != 0.9 {
		t.Fatal("WithDesignPoints aliases the caller's slice")
	}

	// WithConfig must copy too.
	src := DefaultConfig()
	cfg2, err := NewConfig(WithConfig(src))
	if err != nil {
		t.Fatal(err)
	}
	src.DPs[0].Power = 1
	if cfg2.DPs[0].Power == 1 {
		t.Fatal("WithConfig aliases the caller's design-point slice")
	}
}

func TestOptionOrderLaterWins(t *testing.T) {
	cfg, err := NewConfig(WithAlpha(1), WithAlpha(3))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Alpha != 3 {
		t.Fatalf("alpha %v, want the later option's 3", cfg.Alpha)
	}
	// WithConfig replaces wholesale; field options after it refine.
	base := DefaultConfig()
	base.Alpha = 5
	cfg, err = NewConfig(WithAlpha(2), WithConfig(base))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Alpha != 5 {
		t.Fatalf("WithConfig should override the earlier WithAlpha, got %v", cfg.Alpha)
	}
}

func TestOptionValidation(t *testing.T) {
	cases := map[string]Option{
		"negative alpha":   WithAlpha(-1),
		"NaN alpha":        WithAlpha(math.NaN()),
		"zero period":      WithPeriod(0),
		"negative period":  WithPeriod(-3600),
		"negative poff":    WithOffPower(-1),
		"no design points": WithDesignPoints(),
		"bad battery":      WithBattery(10, 5),
		"negative battery": WithBattery(-1, 5),
		"infinite battery": WithBattery(math.Inf(1), math.Inf(1)),
		"nil option":       nil,
	}
	for name, opt := range cases {
		if _, err := New(opt); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: err %v, want ErrInvalidConfig", name, err)
		}
		// NewConfig keeps no battery, but it refuses
		// every option New refuses.
		if _, err := NewConfig(opt); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: NewConfig err %v, want ErrInvalidConfig", name, err)
		}
	}
	if _, err := New(WithSolver("missing")); !errors.Is(err, ErrUnknownSolver) {
		t.Errorf("WithSolver(missing): err %v, want ErrUnknownSolver", err)
	}
}

func TestNewDefaultSessionMatchesLegacyController(t *testing.T) {
	ctl, err := New()
	if err != nil {
		t.Fatal(err)
	}
	legacy := newTestController(t, DefaultConfig(), 0, 0)
	legacy.SetSolveFunc(core.SolveContext)
	for _, h := range []float64{0.1, 2, 5, 8, 12} {
		a, err := ctl.Step(h)
		if err != nil {
			t.Fatal(err)
		}
		b, err := legacy.Step(h)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.Objective(ctl.Config())-b.Objective(legacy.Config())) > 1e-12 {
			t.Fatalf("New() and NewController diverge at %v J", h)
		}
	}
}

// TestNewKeepsDesignPointNames: configurations that differ only in
// design-point names share one memoized plan, and each session still
// reports its caller's names.
func TestNewKeepsDesignPointNames(t *testing.T) {
	renamed := DefaultConfig()
	renamed.DPs[0].Name = "renamed"
	for _, cfg := range []Config{DefaultConfig(), renamed} {
		ctl, err := New(WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ctl.Config().DPs[0].Name, cfg.DPs[0].Name; got != want {
			t.Fatalf("session reports design point %q, want %q", got, want)
		}
	}
}

func TestNewWithEnumerateBackend(t *testing.T) {
	ctl, err := New(WithSolver(SolverEnumerate), WithBattery(20, 100))
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := ctl.Step(4.5)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.ActiveTime() == 0 {
		t.Fatal("enumerate-backed session produced an empty schedule")
	}
	if ctl.Battery() > 100 {
		t.Fatalf("battery %v exceeds capacity", ctl.Battery())
	}
}

// TestNewWithCustomBackend: a hook installed with SetSolveFunc answers
// the session's steps in place of its plan.
func TestNewWithCustomBackend(t *testing.T) {
	ctl, err := New()
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	ctl.SetSolveFunc(func(ctx context.Context, cfg Config, budget float64) (Allocation, error) {
		calls++
		return core.SolveContext(ctx, cfg, budget)
	})
	if _, err := ctl.Step(5); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("custom backend called %d times, want 1", calls)
	}
}

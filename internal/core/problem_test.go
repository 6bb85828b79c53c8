package core

import (
	"errors"
	"math"
	"testing"
)

// An infinite period or design-point power must be refused up front.
// Accepted, the first made every backend answer off:0% dead:NaN% with a
// nil error, and the second made the plan, enumerate and simplex
// backends disagree. Every entry point that compiles or solves a
// configuration validates it, so each must refuse both.
func TestValidateRefusesInfinities(t *testing.T) {
	infPeriod := DefaultConfig()
	infPeriod.Period = math.Inf(1)
	infPower := DefaultConfig()
	infPower.DPs[3].Power = math.Inf(1)
	for name, cfg := range map[string]Config{"period": infPeriod, "design-point power": infPower} {
		entries := map[string]func() error{
			"Validate": cfg.Validate,
			"NewPlan":  func() error { _, err := NewPlan(cfg); return err },
			"PlanFor":  func() error { _, err := PlanFor(cfg); return err },
			"NewController": func() error {
				_, err := NewController(cfg, 1, 10)
				return err
			},
			"Solve":          func() error { _, err := Solve(cfg, 5); return err },
			"SolveEnumerate": func() error { _, err := SolveEnumerate(cfg, 5); return err },
		}
		for entry, call := range entries {
			if err := call(); !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("infinite %s: %s returned %v, want ErrInvalidConfig", name, entry, err)
			}
		}
	}
}

package reap

import (
	"math"
	"testing"

	"repro/internal/core"
)

func TestPublicAPISolve(t *testing.T) {
	cfg := DefaultConfig()
	alloc, err := core.Solve(cfg, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(alloc.Utilization(cfg, 3)-0.42) > 0.02 {
		t.Fatalf("DP4 share %.3f, want ~0.42", alloc.Utilization(cfg, 3))
	}
	enum, err := core.SolveEnumerate(cfg, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(alloc.Objective(cfg)-enum.Objective(cfg)) > 1e-9 {
		t.Fatal("solvers disagree through the public API")
	}
}

func TestPublicAPIConstants(t *testing.T) {
	if DefaultPeriod != 3600 {
		t.Fatal("period")
	}
	if math.Abs(DefaultPOff*3600-0.18) > 1e-12 {
		t.Fatal("off power")
	}
	dps := PaperDesignPoints()
	if len(dps) != 5 || dps[0].Name != "DP1" || dps[4].Accuracy != 0.76 {
		t.Fatalf("paper DPs %v", dps)
	}
	// Pareto-optimal: from DP1 to DP5 accuracy and power both fall, so
	// no point is at least as accurate as another while drawing less.
	for i := 1; i < len(dps); i++ {
		if dps[i].Accuracy >= dps[i-1].Accuracy || dps[i].Power >= dps[i-1].Power {
			t.Fatalf("%s does not trade accuracy for power against %s", dps[i].Name, dps[i-1].Name)
		}
	}
}

func TestPublicAPIRegions(t *testing.T) {
	cfg := DefaultConfig()
	cases := map[float64]Region{0.1: RegionDead, 2: Region1, 6: Region2, 11: Region3}
	for budget, want := range cases {
		if got := Classify(cfg, budget); got != want {
			t.Errorf("Classify(%v) = %v, want %v", budget, got, want)
		}
	}
}

func TestPublicAPIController(t *testing.T) {
	cfg := DefaultConfig()
	ctl, err := core.NewController(cfg, 10, 50)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := ctl.Step(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Report(alloc.Energy(cfg)); err != nil {
		t.Fatal(err)
	}
	if ctl.Steps() != 1 {
		t.Fatal("steps")
	}
}

func TestPublicAPIStaticBaseline(t *testing.T) {
	cfg := DefaultConfig()
	for budget := 0.5; budget < 11; budget += 0.5 {
		reapAlloc, err := core.Solve(cfg, budget)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfg.DPs {
			if StaticObjective(cfg, i, budget) > reapAlloc.Objective(cfg)+1e-9 {
				t.Fatalf("static DP%d beats REAP at %v J", i+1, budget)
			}
			s := core.StaticAllocation(cfg, i, budget)
			if s.Energy(cfg) > budget+1e-6 {
				t.Fatalf("static DP%d overspends at %v J", i+1, budget)
			}
		}
	}
}

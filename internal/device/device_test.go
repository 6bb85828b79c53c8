package device

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/solar"
)

func defaultSim() *Simulator {
	return &Simulator{Cfg: core.DefaultConfig()}
}

func TestPolicyNames(t *testing.T) {
	if (REAPPolicy{}).Name() != "REAP" {
		t.Fatal("REAP name")
	}
	if (StaticPolicy{Index: 2}).Name() != "DP3" {
		t.Fatal("static name")
	}
}

func TestSimulatorValidation(t *testing.T) {
	s := &Simulator{Cfg: core.Config{}}
	if _, err := s.Run(REAPPolicy{}, []float64{1}); err == nil {
		t.Fatal("invalid config accepted")
	}
	s = defaultSim()
	s.ExecutionNoise = 0.9
	if _, err := s.Run(REAPPolicy{}, []float64{1}); err == nil {
		t.Fatal("excessive noise accepted")
	}
	s = defaultSim()
	if _, err := s.Run(StaticPolicy{Index: 9}, []float64{1}); err == nil {
		t.Fatal("out-of-range static index accepted")
	}
}

func TestREAPBeatsStaticsOverMonth(t *testing.T) {
	// Figure 7's qualitative claim on our synthetic September: mean J(t)
	// of REAP >= mean J(t) of every static DP, for every alpha.
	tr, err := solar.September2015()
	if err != nil {
		t.Fatal(err)
	}
	budgets := solar.GreedyAllocator{}.Budgets(tr.Hours)
	for _, alpha := range []float64{0.5, 1, 2, 4, 8} {
		cfg := core.DefaultConfig()
		cfg.Alpha = alpha
		sim := &Simulator{Cfg: cfg}
		reap, err := sim.Run(REAPPolicy{}, budgets)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfg.DPs {
			static, err := sim.Run(StaticPolicy{Index: i}, budgets)
			if err != nil {
				t.Fatal(err)
			}
			if static.MeanObjective() > reap.MeanObjective()+1e-9 {
				t.Errorf("alpha %v: DP%d mean J %v beats REAP %v",
					alpha, i+1, static.MeanObjective(), reap.MeanObjective())
			}
		}
	}
}

func TestSimulatorHourRecordsConsistent(t *testing.T) {
	sim := defaultSim()
	budgets := []float64{0, 0.1, 1, 3, 5, 8, 12}
	res, err := sim.Run(REAPPolicy{}, budgets)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hours) != len(budgets) {
		t.Fatal("hour count mismatch")
	}
	for i, h := range res.Hours {
		if h.Consumed > budgets[i]+1e-9 {
			t.Errorf("hour %d: consumed %v exceeds budget %v", i, h.Consumed, budgets[i])
		}
		if h.ActiveTime < 0 || h.ActiveTime > sim.Cfg.Period+1e-9 {
			t.Errorf("hour %d: active time %v out of range", i, h.ActiveTime)
		}
		if !math.IsNaN(h.ExpectedAccuracy) && h.ExpectedAccuracy < 0 || h.ExpectedAccuracy > 1 {
			t.Errorf("hour %d: expected accuracy %v", i, h.ExpectedAccuracy)
		}
	}
	// Totals are sums.
	var consumed float64
	for _, h := range res.Hours {
		consumed += h.Consumed
	}
	if math.Abs(consumed-res.TotalConsumed()) > 1e-9 {
		t.Fatal("TotalConsumed mismatch")
	}
	if res.MeanObjective() < 0 || res.MeanExpectedAccuracy() < 0 {
		t.Fatal("negative aggregates")
	}
	// Empty run aggregates are zero.
	empty := &RunResult{}
	if empty.MeanObjective() != 0 || empty.MeanExpectedAccuracy() != 0 {
		t.Fatal("empty aggregates not zero")
	}
}

// OraclePolicy solves with the enumeration solver, so comparing it with
// REAPPolicy shows the simulator is solver-agnostic.
type OraclePolicy struct{}

// Name implements Policy.
func (OraclePolicy) Name() string { return "oracle" }

// Plan implements Policy.
func (OraclePolicy) Plan(cfg core.Config, budget float64) (core.Allocation, error) {
	return core.SolveEnumerate(cfg, budget)
}

func TestOracleMatchesREAP(t *testing.T) {
	sim := defaultSim()
	budgets := []float64{0.5, 2, 4.5, 7, 9.9, 11}
	a, err := sim.Run(REAPPolicy{}, budgets)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run(OraclePolicy{}, budgets)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Hours {
		if math.Abs(a.Hours[i].Objective-b.Hours[i].Objective) > 1e-9 {
			t.Fatalf("hour %d: simplex J %v != enumeration J %v",
				i, a.Hours[i].Objective, b.Hours[i].Objective)
		}
	}
}

func TestExecutionNoiseDeterministic(t *testing.T) {
	mk := func() *RunResult {
		sim := defaultSim()
		sim.ExecutionNoise = 0.05
		sim.Seed = 11
		res, err := sim.Run(StaticPolicy{Index: 0}, []float64{5, 5, 5})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	for i := range a.Hours {
		if a.Hours[i].Consumed != b.Hours[i].Consumed {
			t.Fatal("same seed produced different noise")
		}
	}
	// Noise actually perturbs.
	noiseless := defaultSim()
	c, err := noiseless.Run(StaticPolicy{Index: 0}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Hours {
		if math.Abs(a.Hours[i].Consumed-c.Hours[i].Consumed) > 1e-12 {
			same = false
		}
	}
	if same {
		t.Fatal("execution noise had no effect")
	}
}

func TestRegionAnnotation(t *testing.T) {
	sim := defaultSim()
	res, err := sim.Run(REAPPolicy{}, []float64{0.05, 2, 6, 11})
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Region{core.RegionDead, core.Region1, core.Region2, core.Region3}
	for i, h := range res.Hours {
		if h.Region != want[i] {
			t.Errorf("hour %d: region %v, want %v", i, h.Region, want[i])
		}
	}
}

package device

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/solar"
)

// newTestController builds a controller for cfg, failing t on error.
func newTestController(t *testing.T, cfg core.Config, batteryJ, capacityJ float64) *core.Controller {
	t.Helper()
	ctl, err := core.NewController(cfg, batteryJ, capacityJ)
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

func TestSimulatorValidation(t *testing.T) {
	if _, err := Replay(core.Config{}, []float64{1}, nil); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := Replay(core.DefaultConfig(), []float64{1}, Static(9)); err == nil {
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
		reap, err := Replay(cfg, budgets, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfg.DPs {
			static, err := Replay(cfg, budgets, Static(i))
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
	cfg := core.DefaultConfig()
	budgets := []float64{0, 0.1, 1, 3, 5, 8, 12}
	res, err := Replay(cfg, budgets, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hours) != len(budgets) {
		t.Fatal("hour count mismatch")
	}
	for i, h := range res.Hours {
		if h.Budget != budgets[i] || h.Battery != 0 {
			t.Errorf("hour %d: budget %v battery %v, want %v and no battery", i, h.Budget, h.Battery, budgets[i])
		}
		if h.Consumed > budgets[i]+1e-9 {
			t.Errorf("hour %d: consumed %v exceeds budget %v", i, h.Consumed, budgets[i])
		}
		if h.ActiveTime < 0 || h.ActiveTime > cfg.Period+1e-9 {
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

// TestOracleMatchesREAP replays the same budgets on the plan (a nil
// hook) and on the simplex and enumeration oracles: the replay is
// solver-agnostic, and the plan agrees with both at every α tried.
func TestOracleMatchesREAP(t *testing.T) {
	budgets := []float64{0.5, 2, 4.5, 7, 9.9, 11}
	for _, alpha := range []float64{0, 1, 8} {
		cfg := core.DefaultConfig()
		cfg.Alpha = alpha
		plan, err := Replay(cfg, budgets, nil)
		if err != nil {
			t.Fatal(err)
		}
		for name, hook := range map[string]core.SolveFunc{
			"simplex":     core.SolveContext,
			"enumeration": core.SolveEnumerateContext,
		} {
			oracle, err := Replay(cfg, budgets, hook)
			if err != nil {
				t.Fatal(err)
			}
			for i := range plan.Hours {
				if math.Abs(plan.Hours[i].Objective-oracle.Hours[i].Objective) > 1e-9 {
					t.Fatalf("α=%v hour %d: plan J %v != %s J %v",
						alpha, i, plan.Hours[i].Objective, name, oracle.Hours[i].Objective)
				}
			}
		}
	}
}

func TestRegionAnnotation(t *testing.T) {
	res, err := Replay(core.DefaultConfig(), []float64{0.05, 2, 6, 11}, nil)
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

func TestClosedLoopValidation(t *testing.T) {
	if _, err := Run(nil, []float64{1}, 0, 0); err == nil {
		t.Fatal("nil controller accepted")
	}
	ctrl := newTestController(t, core.DefaultConfig(), 0, 10)
	if _, err := Run(ctrl, []float64{1, -1}, 0, 0); err == nil {
		t.Fatal("negative harvest accepted")
	}
}

func TestClosedLoopPlanOnly(t *testing.T) {
	ctrl := newTestController(t, core.DefaultConfig(), 5, 50)
	tr, err := solar.September2015()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ctrl, tr.Hours[:72], 0.03, 9) // three days
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hours) != 72 {
		t.Fatalf("%d hours", len(res.Hours))
	}
	for i, h := range res.Hours {
		if h.Battery < 0 || h.Battery > 50 {
			t.Fatalf("hour %d: battery %v out of bounds", i, h.Battery)
		}
	}
	if last := res.Hours[len(res.Hours)-1].Battery; last != ctrl.Battery() {
		t.Fatalf("last recorded battery %v, controller holds %v", last, ctrl.Battery())
	}
	if res.TotalActiveTime() <= 0 {
		t.Fatal("device never active across three September days")
	}
}

func TestClosedLoopSurvivesMonth(t *testing.T) {
	ctrl := newTestController(t, core.DefaultConfig(), 20, 100)
	tr, err := solar.September2015()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ctrl, tr.Hours, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hours) != len(tr.Hours) {
		t.Fatal("length mismatch")
	}
	// Over a sunny month the device must be active most daylight hours.
	activeHours := 0
	for _, h := range res.Hours {
		if h.ActiveTime > 0 {
			activeHours++
		}
	}
	if activeHours < 200 {
		t.Fatalf("only %d active hours in September", activeHours)
	}
}

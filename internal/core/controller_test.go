package core

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// newTestController builds a controller for cfg, failing t on error.
func newTestController(t *testing.T, cfg Config, batteryJ, capacityJ float64) *Controller {
	t.Helper()
	ct, err := NewController(cfg, batteryJ, capacityJ)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func TestControllerValidation(t *testing.T) {
	c := DefaultConfig()
	if _, err := NewController(Config{}, 0, 0); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := NewController(c, 5, 1); err == nil {
		t.Fatal("charge above capacity accepted")
	}
	if _, err := NewController(c, -1, 1); err == nil {
		t.Fatal("negative charge accepted")
	}
	ct := newTestController(t, c, 1, 10)
	if err := ct.SetAlpha(-1); err == nil {
		t.Fatal("negative alpha accepted")
	}
	if err := ct.SetAlpha(math.NaN()); err == nil {
		t.Fatal("NaN alpha accepted")
	}
	if _, err := ct.Step(-1); err == nil {
		t.Fatal("negative harvest accepted")
	}
	if err := ct.Report(-1); err == nil {
		t.Fatal("negative consumption accepted")
	}
}

func TestControllerBatteryNeutralOperation(t *testing.T) {
	// Harvest exactly what DP5 needs every hour; the controller must keep
	// the device fully active and the battery level must not drift.
	c := DefaultConfig()
	ct := newTestController(t, c, 5, 20)
	harvest := c.DPs[4].EnergyPerPeriod(c.Period) // 4.32 J
	for hour := 0; hour < 48; hour++ {
		alloc, err := ct.Step(harvest)
		if err != nil {
			t.Fatal(err)
		}
		if alloc.ActiveTime() < c.Period-1e-6 {
			t.Fatalf("hour %d: device not fully active: %v", hour, alloc)
		}
		if err := ct.Report(alloc.Energy(c)); err != nil {
			t.Fatal(err)
		}
	}
	if ct.Steps() != 48 {
		t.Fatalf("steps = %d, want 48", ct.Steps())
	}
	// Battery should only have grown or stayed level (surplus from hours
	// where REAP spent less than harvest+battery).
	if ct.Battery() < 0 || ct.Battery() > 20 {
		t.Fatalf("battery %v out of bounds", ct.Battery())
	}
}

func TestControllerNightDrainsBattery(t *testing.T) {
	c := DefaultConfig()
	ct := newTestController(t, c, 10, 10)
	// No harvest: the controller spends battery, which monotonically
	// drains to zero across successive nights.
	prev := ct.Battery()
	for hour := 0; hour < 12; hour++ {
		alloc, err := ct.Step(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := ct.Report(alloc.Energy(c)); err != nil {
			t.Fatal(err)
		}
		if ct.Battery() > prev+1e-9 {
			t.Fatalf("hour %d: battery grew from %v to %v with zero harvest", hour, prev, ct.Battery())
		}
		prev = ct.Battery()
	}
	if ct.Battery() > 1e-6 {
		t.Fatalf("battery %v, want fully drained after 12 dark hours", ct.Battery())
	}
	// Once empty and dark, the device must be dead for the whole period.
	alloc, err := ct.Step(0)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.ActiveTime() != 0 {
		t.Fatalf("active with no energy: %v", alloc)
	}
}

func TestControllerReportFeedback(t *testing.T) {
	// If the device under-consumes (e.g. user docked it), the surplus must
	// carry into the next period's budget.
	c := DefaultConfig()
	ct := newTestController(t, c, 0, 100)
	a1, err := ct.Step(5)
	if err != nil {
		t.Fatal(err)
	}
	planned := a1.Energy(c)
	if err := ct.Report(planned / 2); err != nil { // consumed only half
		t.Fatal(err)
	}
	b1 := ct.LastBudget()
	_, err = ct.Step(5)
	if err != nil {
		t.Fatal(err)
	}
	b2 := ct.LastBudget()
	if b2 <= b1 {
		t.Fatalf("budget did not grow after under-consumption: %v -> %v", b1, b2)
	}
	if want := 5 + planned/2; math.Abs(b2-want) > 0.5 {
		t.Fatalf("second budget %v, want about %v (harvest + carried surplus)", b2, want)
	}
}

// TestControllerReportRefusesCarryOverflow: two finite reports near
// MaxFloat64 would drive the carry to -Inf, a state no snapshot can
// hold meaningfully. The second is refused and changes nothing.
func TestControllerReportRefusesCarryOverflow(t *testing.T) {
	ct := newTestController(t, DefaultConfig(), 10, 100)
	if _, err := ct.Step(5); err != nil {
		t.Fatal(err)
	}
	if err := ct.Report(1e308); err != nil {
		t.Fatalf("first report: %v", err)
	}
	before := ct.State()
	err := ct.Report(1e308)
	if !errors.Is(err, ErrBudgetNegative) {
		t.Fatalf("second report: err %v, want ErrBudgetNegative", err)
	}
	if !strings.Contains(err.Error(), "overflows") {
		t.Errorf("error %q does not name the overflow", err)
	}
	if ct.State() != before {
		t.Errorf("refused report changed the state: %+v, want %+v", ct.State(), before)
	}
	if err := ct.Report(math.Inf(1)); !errors.Is(err, ErrBudgetNegative) {
		t.Errorf("Report(+Inf): err %v, want ErrBudgetNegative", err)
	}
	if math.IsInf(ct.State().CarryJ, 0) {
		t.Errorf("carry %v after refused reports", ct.State().CarryJ)
	}
}

func TestControllerSetAlphaChangesPlan(t *testing.T) {
	c := DefaultConfig()
	ct := newTestController(t, c, 0, 0)
	a1, err := ct.Step(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := ct.SetAlpha(8); err != nil {
		t.Fatal(err)
	}
	a8, err := ct.Step(5)
	if err != nil {
		t.Fatal(err)
	}
	// At α=8 accuracy dominates: the plan must shift toward higher-
	// accuracy design points relative to α=1.
	hiShare := func(a Allocation) float64 {
		return a.Active[0] + a.Active[1] + a.Active[2]
	}
	if hiShare(a8) <= hiShare(a1) {
		t.Fatalf("alpha=8 plan %v not more accuracy-hungry than alpha=1 plan %v", a8, a1)
	}
}

func TestStaticAllocationBaseline(t *testing.T) {
	c := DefaultConfig()
	// DP1 at 5 J: t = (5 - 0.18)/(2.76e-3 - 5e-5) ≈ 1778.6 s.
	a := StaticAllocation(c, 0, 5)
	want := (5 - 0.18) / (2.76e-3 - DefaultPOff)
	if !approx(a.Active[0], want, 1e-6) {
		t.Fatalf("DP1 static time = %v, want %v", a.Active[0], want)
	}
	if !approx(a.Total(), c.Period, 1e-6) {
		t.Fatalf("total %v != period", a.Total())
	}
	// Unlimited energy: full period.
	a = StaticAllocation(c, 0, 100)
	if !approx(a.Active[0], c.Period, 1e-9) {
		t.Fatalf("DP1 at 100 J = %v, want full period", a.Active[0])
	}
	// Below floor: dead time appears.
	a = StaticAllocation(c, 0, 0.09)
	if a.ActiveTime() != 0 || !approx(a.Dead, c.Period/2, 1) {
		t.Fatalf("sub-floor static allocation %v", a)
	}
}

func TestPaperHeadlineClaims(t *testing.T) {
	// "REAP achieves both 46% higher expected accuracy and 66% longer
	// active time compared to the highest performance design point."
	// These gains are averages over the constrained regions; verify that
	// budgets exist where the gains are at least this large; the
	// sweep averages are cmd/experiments' headline report.
	c := DefaultConfig()
	bestAccGain, bestTimeGain := 0.0, 0.0
	for budget := 0.5; budget <= 9.9; budget += 0.1 {
		reap, err := Solve(c, budget)
		if err != nil {
			t.Fatal(err)
		}
		dp1 := StaticAllocation(c, 0, budget)
		if dp1.ExpectedAccuracy(c) > 0 {
			if g := reap.ExpectedAccuracy(c)/dp1.ExpectedAccuracy(c) - 1; g > bestAccGain {
				bestAccGain = g
			}
		}
		if dp1.ActiveTime() > 0 {
			if g := reap.ActiveTime()/dp1.ActiveTime() - 1; g > bestTimeGain {
				bestTimeGain = g
			}
		}
	}
	if bestAccGain < 0.46 {
		t.Errorf("max accuracy gain over DP1 = %.2f, want >= 0.46", bestAccGain)
	}
	if bestTimeGain < 0.66 {
		t.Errorf("max active-time gain over DP1 = %.2f, want >= 0.66", bestTimeGain)
	}
}

func TestPaper2point3xActiveTime(t *testing.T) {
	// Figure 5(b): in Region 1 REAP achieves 2.3× the active time of DP1.
	c := DefaultConfig()
	found := false
	for budget := 0.5; budget < 4.3; budget += 0.05 {
		reap, err := Solve(c, budget)
		if err != nil {
			t.Fatal(err)
		}
		dp1 := StaticAllocation(c, 0, budget)
		if dp1.ActiveTime() > 0 && reap.ActiveTime()/dp1.ActiveTime() >= 2.29 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no Region-1 budget where REAP active time >= 2.3x DP1")
	}
}

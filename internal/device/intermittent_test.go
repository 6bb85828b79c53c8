package device

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/solar"
)

func TestCapacitorValidation(t *testing.T) {
	bad := []*Capacitor{
		{CapacityJ: 0, TurnOnJ: 1, TurnOffJ: 0.2},
		{CapacityJ: 5, TurnOnJ: 0.2, TurnOffJ: 0.5},
		{CapacityJ: 5, TurnOnJ: 6, TurnOffJ: 0.2},
		{CapacityJ: 5, TurnOnJ: 1, TurnOffJ: -0.1},
		{CapacityJ: 5, TurnOnJ: 1, TurnOffJ: 0.2, LeakWattsPerJoule: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := DefaultCapacitor().Validate(); err != nil {
		t.Fatalf("default capacitor invalid: %v", err)
	}
}

func TestCapacitorHysteresis(t *testing.T) {
	c := DefaultCapacitor()
	if c.On() {
		t.Fatal("capacitor starts on with no charge")
	}
	// Charge past turn-on.
	c.step(1.5, 0, 3600)
	if !c.On() {
		t.Fatalf("not on at %v J (turn-on %v)", c.Charge(), c.TurnOnJ)
	}
	// Drain to between the thresholds: must stay on (hysteresis).
	c.step(0, c.Charge()-0.5, 3600)
	if !c.On() {
		t.Fatal("turned off inside the hysteresis band")
	}
	// Drain below turn-off: off.
	c.step(0, c.Charge()-0.1, 3600)
	if c.On() {
		t.Fatalf("still on at %v J (turn-off %v)", c.Charge(), c.TurnOffJ)
	}
	// Small recharge below turn-on: stays off.
	c.step(0.5, 0, 3600)
	if c.On() {
		t.Fatal("turned on below the turn-on threshold")
	}
}

func TestCapacitorLeakageAndClamps(t *testing.T) {
	c := DefaultCapacitor()
	c.step(100, 0, 3600) // overcharge clamps at capacity
	if c.Charge() > c.CapacityJ {
		t.Fatalf("charge %v above capacity", c.Charge())
	}
	before := c.Charge()
	c.step(0, 0, 3600)
	if c.Charge() >= before {
		t.Fatal("no leakage over an idle hour")
	}
	c.step(0, 100, 3600) // over-drain clamps at zero
	if c.Charge() < 0 {
		t.Fatal("negative charge")
	}
}

// TestCapacitorLeaksOverPeriod checks that leakage scales with the
// configured period: an idle half-hour leaks half what an idle hour
// leaks from the same charge.
func TestCapacitorLeaksOverPeriod(t *testing.T) {
	leak := func(period float64) float64 {
		cfg := core.DefaultConfig()
		cfg.Period = period
		c := DefaultCapacitor()
		c.charge = 0.9 // below turn-on: the device stays off and only leaks
		d := &IntermittentDevice{Cfg: cfg, Cap: c}
		if _, err := d.Run([]float64{0}); err != nil {
			t.Fatal(err)
		}
		return 0.9 - c.Charge()
	}
	hour, half := leak(3600), leak(1800)
	if hour <= 0 {
		t.Fatalf("no leakage over an idle hour: %v", hour)
	}
	if math.Abs(half-hour/2) > 1e-12 {
		t.Fatalf("idle 1800 s step leaked %v J, want half of the hour's %v J", half, hour)
	}
}

func TestIntermittentDeviceOverSolarMonth(t *testing.T) {
	tr, err := solar.September2015()
	if err != nil {
		t.Fatal(err)
	}
	d := &IntermittentDevice{Cfg: core.DefaultConfig(), Cap: DefaultCapacitor()}
	run, err := d.Run(tr.Hours)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Hours) != len(tr.Hours) {
		t.Fatal("length mismatch")
	}
	// The capacitor-only device must work during sunny hours and go dark
	// at night (5 J of storage cannot bridge 14 dark hours).
	gaps := ComputeGapStats(run)
	if gaps.ActiveHours < 100 {
		t.Fatalf("only %d active hours in September", gaps.ActiveHours)
	}
	if gaps.LongestGapHours < 10 {
		t.Fatalf("longest gap %d h; nights should black the device out", gaps.LongestGapHours)
	}
	// Compare with a battery-backed controller on the same trace: the
	// battery device must observe strictly more hours.
	ctl := newTestController(t, core.DefaultConfig(), 20, 100)
	batteryRun, err := Run(ctl, tr.Hours, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	batteryActive := 0
	for _, h := range batteryRun.Hours {
		if h.ActiveTime > 0 {
			batteryActive++
		}
	}
	if batteryActive <= gaps.ActiveHours {
		t.Fatalf("battery device active %d h, capacitor device %d h",
			batteryActive, gaps.ActiveHours)
	}
}

func TestIntermittentValidation(t *testing.T) {
	d := &IntermittentDevice{Cfg: core.Config{}, Cap: DefaultCapacitor()}
	if _, err := d.Run([]float64{1}); err == nil {
		t.Fatal("invalid config accepted")
	}
	d = &IntermittentDevice{Cfg: core.DefaultConfig()}
	if _, err := d.Run([]float64{1}); err == nil {
		t.Fatal("nil capacitor accepted")
	}
	d = &IntermittentDevice{Cfg: core.DefaultConfig(), Cap: &Capacitor{}}
	if _, err := d.Run([]float64{1}); err == nil {
		t.Fatal("invalid capacitor accepted")
	}
}

func TestComputeGapStats(t *testing.T) {
	mk := func(active ...bool) *RunResult {
		r := &RunResult{}
		for _, a := range active {
			h := HourRecord{}
			if a {
				h.ActiveTime = 100
			}
			r.Hours = append(r.Hours, h)
		}
		return r
	}
	s := ComputeGapStats(mk(true, false, false, true, false, true))
	if s.ActiveHours != 3 || s.Gaps != 2 || s.LongestGapHours != 2 {
		t.Fatalf("stats %+v", s)
	}
	if s.MeanGapHours != 1.5 {
		t.Fatalf("mean gap %v", s.MeanGapHours)
	}
	// All active, no gaps.
	s = ComputeGapStats(mk(true, true))
	if s.Gaps != 0 || s.LongestGapHours != 0 || s.MeanGapHours != 0 {
		t.Fatalf("stats %+v", s)
	}
	// Trailing gap counted.
	s = ComputeGapStats(mk(true, false, false, false))
	if s.Gaps != 1 || s.LongestGapHours != 3 {
		t.Fatalf("stats %+v", s)
	}
	// Empty run.
	s = ComputeGapStats(&RunResult{})
	if s.ActiveHours != 0 || s.Gaps != 0 {
		t.Fatalf("stats %+v", s)
	}
}

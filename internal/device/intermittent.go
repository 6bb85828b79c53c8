package device

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Capacitor models the storage element of the battery-less device class
// from the paper's related work (Shenck & Paradiso's piezo scavengers and
// kin): energy lives in a small capacitor; the device boots when the
// stored energy crosses the turn-on threshold and dies when it falls to
// the turn-off threshold (hysteresis prevents boot-loops). REAP applies
// "to all devices that operate under a fixed energy budget" — this model
// lets the simulator quantify how much the missing battery costs.
type Capacitor struct {
	// CapacityJ is the usable energy at full charge.
	CapacityJ float64
	// TurnOnJ and TurnOffJ are the hysteresis thresholds.
	TurnOnJ, TurnOffJ float64
	// LeakWattsPerJoule models leakage as proportional to the state of
	// charge (dielectric absorption + regulator quiescent).
	LeakWattsPerJoule float64

	charge float64
	on     bool
}

// DefaultCapacitor returns a supercap sized for roughly one hour of DP5
// (5 J usable) with 20%/5% hysteresis.
func DefaultCapacitor() *Capacitor {
	return &Capacitor{
		CapacityJ:         5,
		TurnOnJ:           1.0,
		TurnOffJ:          0.25,
		LeakWattsPerJoule: 2e-6,
	}
}

// Validate checks the capacitor parameters.
func (c *Capacitor) Validate() error {
	if c.CapacityJ <= 0 || math.IsNaN(c.CapacityJ) {
		return fmt.Errorf("device: capacitor capacity %v", c.CapacityJ)
	}
	if c.TurnOffJ < 0 || c.TurnOnJ <= c.TurnOffJ || c.TurnOnJ > c.CapacityJ {
		return fmt.Errorf("device: hysteresis %v/%v invalid for capacity %v",
			c.TurnOnJ, c.TurnOffJ, c.CapacityJ)
	}
	if c.LeakWattsPerJoule < 0 {
		return fmt.Errorf("device: negative leakage")
	}
	return nil
}

// Charge returns the stored energy.
func (c *Capacitor) Charge() float64 { return c.charge }

// On reports whether the device is powered.
func (c *Capacitor) On() bool { return c.on }

// step advances one period of the given length (s): harvest flows in
// (minus what the period's plan consumed), leakage flows out, hysteresis
// updates the power state.
func (c *Capacitor) step(harvested, consumed, period float64) {
	c.charge += harvested - consumed
	// Leakage over the period, proportional to the (mean) state of charge.
	c.charge -= c.LeakWattsPerJoule * c.charge * period
	c.charge = math.Max(0, math.Min(c.CapacityJ, c.charge))
	if c.on && c.charge <= c.TurnOffJ {
		c.on = false
	}
	if !c.on && c.charge >= c.TurnOnJ {
		c.on = true
	}
}

// IntermittentDevice runs REAP on the capacitor-only platform: each hour
// the budget is whatever the capacitor can give down to the turn-off
// threshold plus the hour's expected harvest; when the device is off it
// only charges.
type IntermittentDevice struct {
	Cfg core.Config
	Cap *Capacitor
}

// Run simulates the hourly harvest sequence and returns per-hour records.
func (d *IntermittentDevice) Run(harvest []float64) (*RunResult, error) {
	p, err := core.NewPlan(d.Cfg)
	if err != nil {
		return nil, err
	}
	if d.Cap == nil {
		return nil, fmt.Errorf("device: intermittent device needs a capacitor")
	}
	if err := d.Cap.Validate(); err != nil {
		return nil, err
	}
	res := &RunResult{}
	for _, h := range harvest {
		var alloc core.Allocation
		var consumed float64
		if d.Cap.On() {
			budget := math.Max(0, d.Cap.Charge()-d.Cap.TurnOffJ) + h
			a, err := p.Solve(budget)
			if err != nil {
				return nil, err
			}
			alloc = a
			consumed = a.Energy(d.Cfg)
		} else {
			// Dead: not even the harvesting monitor runs off the cap
			// model here; the hour only charges.
			alloc = core.Allocation{
				Active: make([]float64, len(d.Cfg.DPs)),
				Dead:   d.Cfg.Period,
			}
		}
		d.Cap.step(h, consumed, d.Cfg.Period)
		res.add(d.Cfg, h, alloc, consumed, d.Cap.Charge())
	}
	return res, nil
}

// GapStats summarizes observation blackouts over a run: for a health
// monitor, the longest unobserved stretch matters as much as the mean
// accuracy (a fall during a blackout is a fall missed).
type GapStats struct {
	// ActiveHours counts hours with any active time.
	ActiveHours int
	// LongestGapHours is the longest run of fully-inactive hours.
	LongestGapHours int
	// MeanGapHours is the mean length of inactive runs.
	MeanGapHours float64
	// Gaps is the number of inactive runs.
	Gaps int
}

// ComputeGapStats scans a run's hourly records.
func ComputeGapStats(r *RunResult) GapStats {
	var s GapStats
	run := 0
	var total int
	flush := func() {
		if run > 0 {
			s.Gaps++
			total += run
			if run > s.LongestGapHours {
				s.LongestGapHours = run
			}
			run = 0
		}
	}
	for _, h := range r.Hours {
		if h.ActiveTime > 0 {
			s.ActiveHours++
			flush()
		} else {
			run++
		}
	}
	flush()
	if s.Gaps > 0 {
		s.MeanGapHours = float64(total) / float64(s.Gaps)
	}
	return s
}

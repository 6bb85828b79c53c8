package device

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Segment is one contiguous stretch of the hour spent in a single state.
type Segment struct {
	// DP is the design-point index, or -1 for the off state.
	DP int
	// Start and Duration are in seconds from the period start.
	Start, Duration float64
}

// Switching-cost constants: changing design points reconfigures sensors
// (accelerometer power-up and settling) and reloads classifier weights.
// The LP ignores these; Schedule prices them so the error of that
// simplification can be measured.
const (
	// SwitchTime is the dead time per design-point switch (sensor
	// power-up + reconfiguration), during which no activity is observed.
	SwitchTime = 0.05
	// SwitchEnergy is the energy per switch (accelerometer startup
	// transient plus MCU reconfiguration).
	SwitchEnergy = 0.5e-3
)

// Schedule realizes an Allocation as an ordered segment list. Because an
// optimal basic solution mixes at most two design points plus off, block
// scheduling needs at most two switches per hour; the order runs the
// higher-power design point first (while the hour's harvest is typically
// still arriving) and off last.
type Schedule struct {
	Segments []Segment
	// Switches is the number of state changes (including into off).
	Switches int
	// OverheadEnergy and OverheadTime price the switches.
	OverheadEnergy float64
	OverheadTime   float64
}

// BuildSchedule converts an allocation into segments with switching
// overhead. The overhead time is charged against the largest segment so
// the period total is preserved.
func BuildSchedule(cfg core.Config, a core.Allocation) (*Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(a.Active) != len(cfg.DPs) {
		return nil, fmt.Errorf("device: allocation width %d for %d design points",
			len(a.Active), len(cfg.DPs))
	}
	s := &Schedule{}
	// Collect active states, highest power first.
	type block struct {
		dp  int
		dur float64
	}
	var blocks []block
	for i, t := range a.Active {
		if t > 1e-9 {
			blocks = append(blocks, block{i, t})
		}
	}
	for i := 0; i < len(blocks); i++ {
		for j := i + 1; j < len(blocks); j++ {
			if cfg.DPs[blocks[j].dp].Power > cfg.DPs[blocks[i].dp].Power {
				blocks[i], blocks[j] = blocks[j], blocks[i]
			}
		}
	}
	if a.Off+a.Dead > 1e-9 {
		blocks = append(blocks, block{-1, a.Off + a.Dead})
	}
	if len(blocks) == 0 {
		return s, nil
	}
	s.Switches = len(blocks) - 1
	s.OverheadEnergy = float64(s.Switches) * SwitchEnergy
	s.OverheadTime = float64(s.Switches) * SwitchTime

	// Charge the switch dead time to the longest block.
	longest := 0
	for i := range blocks {
		if blocks[i].dur > blocks[longest].dur {
			longest = i
		}
	}
	blocks[longest].dur -= s.OverheadTime
	if blocks[longest].dur < 0 {
		return nil, fmt.Errorf("device: switching overhead %v exceeds the longest block", s.OverheadTime)
	}
	at := 0.0
	for _, b := range blocks {
		s.Segments = append(s.Segments, Segment{DP: b.dp, Start: at, Duration: b.dur})
		at += b.dur + SwitchTime
	}
	// The trailing switch slot does not exist; clamp bookkeeping.
	return s, nil
}

// OverheadFraction compares the schedule's switching cost to a fine-
// grained interleaving that switches every interleaveSeconds (e.g. a
// naive per-activity-window round robin at 1.6 s): it returns the energy
// overhead of both as fractions of the allocation's LP energy. This is
// the block-scheduling ablation: the LP's "switching is free" assumption
// is safe for block schedules (two switches/hour) and catastrophic for
// naive interleaving.
func OverheadFraction(cfg core.Config, a core.Allocation, interleaveSeconds float64) (block, interleaved float64, err error) {
	if interleaveSeconds <= 0 {
		return 0, 0, fmt.Errorf("device: interleave period %v must be positive", interleaveSeconds)
	}
	s, err := BuildSchedule(cfg, a)
	if err != nil {
		return 0, 0, err
	}
	lpEnergy := a.Energy(cfg)
	if lpEnergy <= 0 {
		return 0, 0, nil
	}
	block = s.OverheadEnergy / lpEnergy

	// Fine-grained interleaving: every interleave slot that changes state
	// pays a switch. With k active states sharing the hour uniformly, a
	// fraction (k-1)/k of slot boundaries switch (plus off boundaries).
	states := 0
	for _, t := range a.Active {
		if t > 1e-9 {
			states++
		}
	}
	if a.Off+a.Dead > 1e-9 {
		states++
	}
	if states <= 1 {
		return block, 0, nil
	}
	slots := math.Floor(cfg.Period / interleaveSeconds)
	switches := slots * float64(states-1) / float64(states)
	interleaved = switches * SwitchEnergy / lpEnergy
	return block, interleaved, nil
}

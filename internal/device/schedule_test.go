package device

import (
	"math"
	"testing"

	"repro/internal/core"
)

func TestBuildScheduleTwoPointMix(t *testing.T) {
	cfg := core.DefaultConfig()
	alloc, err := core.Solve(cfg, 5) // DP4 + DP5, no off
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildSchedule(cfg, alloc)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Segments) != 2 || s.Switches != 1 {
		t.Fatalf("segments %v, switches %d", s.Segments, s.Switches)
	}
	// Higher-power design point first: DP4 (index 3) before DP5 (4).
	if s.Segments[0].DP != 3 || s.Segments[1].DP != 4 {
		t.Fatalf("order %d, %d, want 3 then 4", s.Segments[0].DP, s.Segments[1].DP)
	}
	// Segments are contiguous up to switch slots.
	if s.Segments[0].Start != 0 {
		t.Fatal("first segment must start at 0")
	}
	gap := s.Segments[1].Start - (s.Segments[0].Start + s.Segments[0].Duration)
	if math.Abs(gap-SwitchTime) > 1e-9 {
		t.Fatalf("inter-segment gap %v, want the switch time %v", gap, SwitchTime)
	}
	// Total time accounted: durations + switch dead time = period.
	var total float64
	for _, seg := range s.Segments {
		total += seg.Duration
	}
	total += s.OverheadTime
	if math.Abs(total-cfg.Period) > 1e-6 {
		t.Fatalf("schedule covers %v s of %v", total, cfg.Period)
	}
	// Energy with overhead slightly exceeds the LP's but stays close.
	lpE := alloc.Energy(cfg)
	schedE := s.OverheadEnergy
	for _, seg := range s.Segments {
		if seg.DP >= 0 {
			schedE += cfg.DPs[seg.DP].Power * seg.Duration
		} else {
			schedE += cfg.POff * seg.Duration
		}
	}
	if schedE <= lpE-1e-9 {
		t.Fatalf("schedule energy %v below LP %v", schedE, lpE)
	}
	if (schedE-lpE)/lpE > 0.001 {
		t.Fatalf("block schedule overhead %.4f%% too large", 100*(schedE-lpE)/lpE)
	}
}

func TestBuildScheduleWithOff(t *testing.T) {
	cfg := core.DefaultConfig()
	alloc, err := core.Solve(cfg, 2) // DP5 + off
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildSchedule(cfg, alloc)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Segments) != 2 || s.Segments[1].DP != -1 {
		t.Fatalf("segments %v, want DP then off", s.Segments)
	}
	// The switch dead time is charged to the longest block — here the off
	// block — so observing time is preserved (and never grows).
	if s.Segments[0].Duration > alloc.ActiveTime()+1e-9 {
		t.Fatal("schedule observes longer than the allocation allows")
	}
	offSeg := s.Segments[1]
	if math.Abs(offSeg.Duration-(alloc.Off-SwitchTime)) > 1e-6 {
		t.Fatalf("off segment %v s, want %v (off minus the switch slot)",
			offSeg.Duration, alloc.Off-SwitchTime)
	}
}

func TestBuildScheduleEdgeCases(t *testing.T) {
	cfg := core.DefaultConfig()
	// Fully off.
	empty := core.Allocation{Active: make([]float64, 5), Off: cfg.Period}
	s, err := BuildSchedule(cfg, empty)
	if err != nil {
		t.Fatal(err)
	}
	if s.Switches != 0 || len(s.Segments) != 1 || s.Segments[0].DP != -1 {
		t.Fatalf("off-only schedule %v", s)
	}
	// Saturated single DP.
	full := core.Allocation{Active: []float64{cfg.Period, 0, 0, 0, 0}}
	s, err = BuildSchedule(cfg, full)
	if err != nil {
		t.Fatal(err)
	}
	if s.Switches != 0 || s.OverheadEnergy != 0 {
		t.Fatalf("single-state schedule has overhead: %v", s)
	}
	// Width mismatch.
	if _, err := BuildSchedule(cfg, core.Allocation{Active: []float64{1}}); err == nil {
		t.Fatal("width mismatch accepted")
	}
	if _, err := BuildSchedule(core.Config{}, empty); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestOverheadFractionBlocksVsInterleaving(t *testing.T) {
	// The ablation: block scheduling's overhead is negligible (<0.1%),
	// per-window interleaving at 1.6 s is ruinous (>10%).
	cfg := core.DefaultConfig()
	alloc, err := core.Solve(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	block, interleaved, err := OverheadFraction(cfg, alloc, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	if block > 0.001 {
		t.Errorf("block overhead %.4f, want < 0.1%%", block)
	}
	if interleaved < 0.10 {
		t.Errorf("interleaved overhead %.4f, want > 10%%", interleaved)
	}
	if interleaved <= block {
		t.Error("interleaving not worse than blocks")
	}
	// Single-state allocations have no interleaving penalty.
	full := core.Allocation{Active: []float64{cfg.Period, 0, 0, 0, 0}}
	b2, i2, err := OverheadFraction(cfg, full, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	if b2 != 0 || i2 != 0 {
		t.Errorf("single-state overheads %v/%v, want 0/0", b2, i2)
	}
	if _, _, err := OverheadFraction(cfg, alloc, 0); err == nil {
		t.Fatal("zero interleave period accepted")
	}
}

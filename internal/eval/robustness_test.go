package eval

import (
	"strings"
	"testing"

	"repro/internal/synth"
)

func TestRobustnessExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	res, err := Robustness(smallCorpus(t), smallPoints(t)[:5], 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 5*len(synth.Faults()) {
		t.Fatalf("%d cells", len(res.Cells))
	}
	// Every fault degrades every design point relative to clean (some
	// slack for sampling noise).
	for _, c := range res.Cells {
		if c.AccuracyPct > res.CleanPct[c.DP]+2 {
			t.Errorf("%s under %v: %.1f%% above clean %.1f%%",
				c.DP, c.Fault, c.AccuracyPct, res.CleanPct[c.DP])
		}
		if c.AccuracyPct < 0 || c.AccuracyPct > 100 {
			t.Errorf("%s under %v: %.1f%% out of range", c.DP, c.Fault, c.AccuracyPct)
		}
		// Systematic corruption can push accuracy below chance (the
		// classifier is confidently wrong off-manifold); no lower bound
		// beyond 0 is asserted.
	}
	// A detached stretch band hurts the stretch-only DP5 catastrophically
	// but leaves the accel-rich DP1 serviceable.
	dp5, _ := res.Accuracy("DP5", synth.StretchDetached)
	dp1, _ := res.Accuracy("DP1", synth.StretchDetached)
	if dp5 >= dp1 {
		t.Errorf("stretch-detached: DP5 %.1f%% not below DP1 %.1f%%", dp5, dp1)
	}
	if dp1 < 25 {
		t.Errorf("stretch-detached DP1 %.1f%%, accel should keep it above chance", dp1)
	}
	// A stuck accel axis cannot hurt DP5 (no accelerometer) beyond noise.
	clean5 := res.CleanPct["DP5"]
	stuck5, _ := res.Accuracy("DP5", synth.StuckAxis)
	if clean5-stuck5 > 1.5 {
		t.Errorf("stuck accel axis cost stretch-only DP5 %.1f points", clean5-stuck5)
	}
	if !strings.Contains(res.Render(), "stuck-axis") {
		t.Error("render incomplete")
	}
}

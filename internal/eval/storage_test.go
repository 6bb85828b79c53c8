package eval

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestStorageExperiment(t *testing.T) {
	tr := september(t)
	res, err := Storage(paperCfg(), tr.Hours)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	capOnly, small, large := res.Rows[0], res.Rows[1], res.Rows[2]
	// Batteries dominate the capacitor-only device on every QoS metric.
	if small.ActiveHours <= capOnly.ActiveHours {
		t.Errorf("20 J battery active %d h not above capacitor %d h",
			small.ActiveHours, capOnly.ActiveHours)
	}
	if small.LongestGapHours > capOnly.LongestGapHours {
		t.Errorf("battery's longest gap %d h above capacitor's %d h",
			small.LongestGapHours, capOnly.LongestGapHours)
	}
	// A larger battery cannot do worse than a smaller one.
	if large.ActiveHours < small.ActiveHours {
		t.Errorf("100 J battery active %d h below 20 J's %d h",
			large.ActiveHours, small.ActiveHours)
	}
	if large.MeanAccuracy < small.MeanAccuracy-1e-9 {
		t.Errorf("100 J battery accuracy %v below 20 J's %v",
			large.MeanAccuracy, small.MeanAccuracy)
	}
	// Nights exist: even the big battery has some gap in a month.
	if capOnly.LongestGapHours < 10 {
		t.Errorf("capacitor-only longest gap %d h, nights should dominate", capOnly.LongestGapHours)
	}
	if !strings.Contains(res.Render(), "capacitor") {
		t.Error("render incomplete")
	}
	if _, err := Storage(core.Config{}, tr.Hours); err == nil {
		t.Error("invalid config accepted")
	}
}

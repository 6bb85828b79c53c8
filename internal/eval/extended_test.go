package eval

import (
	"strings"
	"testing"

	"repro/internal/har"
	"repro/internal/synth"
)

// extendedRow returns the named row of res.
func extendedRow(t *testing.T, res *ExtendedResult, name string) ExtendedRow {
	t.Helper()
	for _, row := range res.Rows {
		if row.Name == name {
			return row
		}
	}
	t.Fatalf("missing row %s", name)
	return ExtendedRow{}
}

func TestExtendedExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	res, err := ExtendedOn(smallCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 { // 5 paper + 5 int8 + 2 goertzel
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, base := range []string{"DP1", "DP2", "DP3", "DP4", "DP5"} {
		orig, quant := extendedRow(t, res, base), extendedRow(t, res, base+"-int8")
		if quant.EnergyMJ >= orig.EnergyMJ {
			t.Errorf("%s-int8 energy %v not below float %v", base, quant.EnergyMJ, orig.EnergyMJ)
		}
		if orig.AccuracyPct-quant.AccuracyPct > 3 {
			t.Errorf("%s-int8 lost %.1f accuracy points", base, orig.AccuracyPct-quant.AccuracyPct)
		}
		if !quant.Extension || orig.Extension {
			t.Errorf("%s extension flags wrong", base)
		}
	}
	// Goertzel variants must undercut their FFT counterparts on energy.
	dp5, gz5 := extendedRow(t, res, "DP5"), extendedRow(t, res, "DP5-gz6")
	if gz5.EnergyMJ >= dp5.EnergyMJ {
		t.Errorf("DP5-gz6 energy %v not below DP5 %v", gz5.EnergyMJ, dp5.EnergyMJ)
	}
	// Partial spectrum costs some accuracy but must stay well above
	// chance and within a few points of the full FFT.
	if dp5.AccuracyPct-gz5.AccuracyPct > 8 {
		t.Errorf("DP5-gz6 lost %.1f points, too many", dp5.AccuracyPct-gz5.AccuracyPct)
	}
	if !strings.Contains(res.Render(), "extension") {
		t.Error("render incomplete")
	}
}

func TestConfusionExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	ds := smallCorpus(t)

	// DP5 (stretch only) must confuse static postures far more than DP1.
	dp1, err := Confusion(ds, har.PaperFive()[0])
	if err != nil {
		t.Fatal(err)
	}
	dp5, err := Confusion(ds, har.PaperFive()[4])
	if err != nil {
		t.Fatal(err)
	}
	staticRecall := func(r *ConfusionResult) float64 {
		return (r.ClassRecall(synth.Sit) + r.ClassRecall(synth.Stand) +
			r.ClassRecall(synth.Drive) + r.ClassRecall(synth.LieDown)) / 4
	}
	if staticRecall(dp5) >= staticRecall(dp1) {
		t.Errorf("DP5 static recall %.2f not below DP1 %.2f",
			staticRecall(dp5), staticRecall(dp1))
	}
	// Dynamic classes survive the stretch-only design point.
	if dp5.ClassRecall(synth.Walk) < 0.85 || dp5.ClassRecall(synth.Jump) < 0.85 {
		t.Errorf("DP5 dynamic recalls walk=%.2f jump=%.2f, want > 0.85",
			dp5.ClassRecall(synth.Walk), dp5.ClassRecall(synth.Jump))
	}
	// The matrix accounts for the whole test split.
	total := 0
	for _, row := range dp1.Matrix {
		for _, v := range row {
			total += v
		}
	}
	if total != len(ds.Test) {
		t.Fatalf("matrix holds %d samples, test split %d", total, len(ds.Test))
	}
	if !strings.Contains(dp1.Render(), "recall%") {
		t.Error("render incomplete")
	}
}

func TestMultiYearExperiment(t *testing.T) {
	res, err := MultiYear(paperCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	years := map[int]bool{}
	for _, row := range res.Rows {
		years[row.Year] = true
		if row.MeanRatioDP1 < 1 {
			t.Errorf("%d: REAP/DP1 %v below 1", row.Year, row.MeanRatioDP1)
		}
		if row.MeanRatioDP5 < 1-1e-9 {
			t.Errorf("%d: REAP/DP5 %v below 1", row.Year, row.MeanRatioDP5)
		}
		if row.HarvestJ <= 0 || row.DaylightHours < 200 {
			t.Errorf("%d: degenerate trace (%v J, %d daylight hours)",
				row.Year, row.HarvestJ, row.DaylightHours)
		}
	}
	for y := 2015; y <= 2018; y++ {
		if !years[y] {
			t.Errorf("year %d missing", y)
		}
	}
	// Different weather realizations must differ.
	if res.Rows[0].HarvestJ == res.Rows[1].HarvestJ {
		t.Error("2015 and 2016 produced identical harvests")
	}
	if !strings.Contains(res.Render(), "2018") {
		t.Error("render incomplete")
	}
}

func TestDayInLifeExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	ds := smallCorpus(t)
	points, err := har.Characterize(ds, har.PaperFive())
	if err != nil {
		t.Fatal(err)
	}
	cfg := har.CoreConfig(points, 1)
	models := make([]*har.Model, len(points))
	for i := range points {
		models[i] = points[i].Model
	}
	day, err := SolarDayBudget(5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DayInLife(cfg, models, ds.Users[0], day, 33)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hours) != 24 {
		t.Fatalf("%d hours", len(res.Hours))
	}
	if res.DayRealized <= 0.5 {
		t.Fatalf("day realized accuracy %v, implausibly low", res.DayRealized)
	}
	if res.Coverage <= 0 || res.Coverage > 1 {
		t.Fatalf("coverage %v", res.Coverage)
	}
	// Night hours (no harvest, no battery in this experiment) are dark.
	if res.Hours[2].WindowsSeen != 0 {
		t.Errorf("device active at 2am with zero budget")
	}
	// Daylight hours see windows.
	sawDaylight := false
	for _, h := range res.Hours {
		if h.WindowsSeen > 50 {
			sawDaylight = true
		}
	}
	if !sawDaylight {
		t.Error("no hour saw substantial classification")
	}
	if !strings.Contains(res.Render(), "Day in the life") {
		t.Error("render incomplete")
	}

	// Validation paths.
	if _, err := DayInLife(cfg, models[:2], ds.Users[0], day, 1); err == nil {
		t.Error("model count mismatch accepted")
	}
	if _, err := DayInLife(cfg, models, ds.Users[0], day[:10], 1); err == nil {
		t.Error("short day accepted")
	}
}

package eval

import (
	"strings"
	"testing"
)

func TestStrategiesExperiment(t *testing.T) {
	// Ten days keeps the receding-horizon LPs quick.
	res, err := Strategies(paperCfg(), september(t).Hours[:240])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	byName := map[string]StrategyRow{}
	for _, r := range res.Rows {
		byName[r.Name] = r
		if r.MeanAccuracy < 0 || r.MeanAccuracy > 1 {
			t.Errorf("%s mean accuracy %v", r.Name, r.MeanAccuracy)
		}
	}
	greedy := byName["greedy (no battery)"]
	oracle := byName["oracle-forecast lookahead"]
	ewma := byName["EWMA-forecast lookahead"]
	battery := byName["battery allocator + myopic REAP"]
	// Storage and foresight must help: oracle >= others; anything with a
	// battery >= greedy.
	if oracle.MeanAccuracy < battery.MeanAccuracy-1e-9 ||
		oracle.MeanAccuracy < ewma.MeanAccuracy-1e-9 ||
		oracle.MeanAccuracy < greedy.MeanAccuracy-1e-9 {
		t.Errorf("oracle lookahead (%v) beaten: battery %v, ewma %v, greedy %v",
			oracle.MeanAccuracy, battery.MeanAccuracy, ewma.MeanAccuracy, greedy.MeanAccuracy)
	}
	if battery.MeanAccuracy < greedy.MeanAccuracy-1e-9 {
		t.Errorf("battery allocator (%v) worse than greedy (%v)",
			battery.MeanAccuracy, greedy.MeanAccuracy)
	}
	if oracle.RelativeToOracle != 1 {
		t.Errorf("oracle normalization %v", oracle.RelativeToOracle)
	}
	if !strings.Contains(res.Render(), "oracle") {
		t.Error("render incomplete")
	}
}

func TestStrategiesValidation(t *testing.T) {
	if _, err := Strategies(paperCfg(), nil); err != nil {
		t.Fatalf("empty trace should be fine: %v", err)
	}
}

func TestQuantizationExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	res, err := Quantization(smallCorpus(t), smallPoints(t)[:5])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Int8EnergyMJ >= row.FloatEnergyMJ {
			t.Errorf("%s: int8 energy %v not below float %v", row.Name, row.Int8EnergyMJ, row.FloatEnergyMJ)
		}
		if row.EnergySavedPct <= 0 || row.EnergySavedPct > 25 {
			t.Errorf("%s: energy saving %v%% implausible", row.Name, row.EnergySavedPct)
		}
		if row.FloatAccPct-row.Int8AccPct > 3 {
			t.Errorf("%s: quantization lost %.1f accuracy points",
				row.Name, row.FloatAccPct-row.Int8AccPct)
		}
	}
	if !strings.Contains(res.Render(), "int8") {
		t.Error("render incomplete")
	}
}

func TestGeneralizationExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	ds := smallCorpus(t)
	res, err := Generalization(ds, smallPoints(t)[0].Model)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerUserMin > res.PerUserMax {
		t.Fatal("per-user bounds inverted")
	}
	if len(res.PerUser) != len(ds.Users) {
		t.Fatalf("per-user report covers %d users, corpus has %d", len(res.PerUser), len(ds.Users))
	}
	// LOUO must trail the within-corpus split (unseen users are harder)
	// but stay far above chance.
	if res.LOUO.Mean > res.WithinSplit+0.03 {
		t.Errorf("LOUO %v above within-split %v", res.LOUO.Mean, res.WithinSplit)
	}
	if res.LOUO.Mean < 0.4 {
		t.Errorf("LOUO mean %v near chance", res.LOUO.Mean)
	}
	out := res.Render()
	if !strings.Contains(out, "LOUO") || !strings.Contains(out, "mean") {
		t.Error("render incomplete")
	}
}

package device

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/har"
	"repro/internal/solar"
	"repro/internal/synth"
)

// sharedModels trains the five paper design points once for the package.
var (
	modelsOnce sync.Once
	modelsDS   *synth.Dataset
	modelsVal  []har.Characterized
	modelsErr  error
)

func trainedFive(t *testing.T) (*synth.Dataset, []har.Characterized) {
	t.Helper()
	modelsOnce.Do(func() {
		modelsDS, modelsErr = synth.NewDataset(synth.CorpusConfig{
			NumUsers: 8, TotalWindows: 1600, Seed: 2019,
		})
		if modelsErr != nil {
			return
		}
		modelsVal, modelsErr = har.Characterize(modelsDS, har.PaperFive())
	})
	if modelsErr != nil {
		t.Fatal(modelsErr)
	}
	return modelsDS, modelsVal
}

func TestClosedLoopValidation(t *testing.T) {
	if _, err := (&ClosedLoop{}).Run([]float64{1}); err == nil {
		t.Fatal("nil controller accepted")
	}
	ctrl, err := core.NewController(core.DefaultConfig(), 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	cl := &ClosedLoop{Controller: ctrl, Models: make([]*har.Model, 2)}
	if _, err := cl.Run([]float64{1}); err == nil {
		t.Fatal("model/DP count mismatch accepted")
	}
	// Validation samples a user per window, so models without users
	// must be refused before the first hour, even if no model is set.
	cl = &ClosedLoop{Controller: ctrl, Models: make([]*har.Model, len(ctrl.Config().DPs))}
	if _, err := cl.Run([]float64{1}); err == nil {
		t.Fatal("models without users accepted")
	}
}

func TestClosedLoopPlanOnly(t *testing.T) {
	ctrl, err := core.NewController(core.DefaultConfig(), 5, 50)
	if err != nil {
		t.Fatal(err)
	}
	cl := &ClosedLoop{Controller: ctrl, ExecutionNoise: 0.03, Seed: 9}
	tr, err := solar.September2015()
	if err != nil {
		t.Fatal(err)
	}
	out, err := cl.Run(tr.Hours[:72]) // three days
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 72 {
		t.Fatalf("%d outcomes", len(out))
	}
	active := 0.0
	for _, o := range out {
		if o.Battery < 0 || o.Battery > 50 {
			t.Fatalf("battery %v out of bounds", o.Battery)
		}
		active += o.ActiveTime
	}
	if active <= 0 {
		t.Fatal("device never active across three September days")
	}
}

func TestClosedLoopRealizedAccuracyTracksExpected(t *testing.T) {
	// The headline validation: the realized accuracy measured by pushing
	// live synthetic windows through the trained classifiers must track
	// the LP's expected accuracy within a few points (it cannot do so
	// exactly: the LP uses test-split accuracies, the live stream has a
	// uniform activity mix).
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	ds, chars := trainedFive(t)
	cfg := har.CoreConfig(chars, 1)
	ctrl, err := core.NewController(cfg, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	models := make([]*har.Model, len(chars))
	for i := range chars {
		models[i] = chars[i].Model
	}
	cl := &ClosedLoop{
		Controller:     ctrl,
		Models:         models,
		Users:          ds.Users,
		WindowsPerHour: 60,
		Seed:           13,
	}
	// Budgets that keep the device fully active on various DP mixes.
	budgets := []float64{5, 6, 7, 8, 9, 10, 5, 6, 7, 8, 9, 10}
	out, err := cl.Run(budgets)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if o.ActiveTime <= 0 {
			t.Fatalf("hour %d inactive at budget %v", i, budgets[i])
		}
		diff := o.RealizedAccuracy - o.ExpectedAccuracy
		if diff > 0.10 || diff < -0.10 {
			t.Errorf("hour %d: realized %0.3f vs expected %0.3f (gap %0.3f)",
				i, o.RealizedAccuracy, o.ExpectedAccuracy, diff)
		}
	}
}

func TestClosedLoopSurvivesMonth(t *testing.T) {
	ctrl, err := core.NewController(core.DefaultConfig(), 20, 100)
	if err != nil {
		t.Fatal(err)
	}
	cl := &ClosedLoop{Controller: ctrl, Seed: 5}
	tr, err := solar.September2015()
	if err != nil {
		t.Fatal(err)
	}
	out, err := cl.Run(tr.Hours)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(tr.Hours) {
		t.Fatal("length mismatch")
	}
	// Over a sunny month the device must be active most daylight hours.
	activeHours := 0
	for _, o := range out {
		if o.ActiveTime > 0 {
			activeHours++
		}
	}
	if activeHours < 200 {
		t.Fatalf("only %d active hours in September", activeHours)
	}
}

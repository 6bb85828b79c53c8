package device

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/solar"
)

func TestOracleForecaster(t *testing.T) {
	o := &OracleForecaster{Trace: []float64{1, 2, 3}}
	p := o.Predict(5)
	want := []float64{1, 2, 3, 0, 0}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("predict %v, want %v", p, want)
		}
	}
	if err := o.Observe(1); err != nil {
		t.Fatal(err)
	}
	p = o.Predict(2)
	if p[0] != 2 || p[1] != 3 {
		t.Fatalf("after observe: %v", p)
	}
}

func TestRecedingHorizonValidation(t *testing.T) {
	rh := &RecedingHorizon{Cfg: core.Config{}, Forecast: &OracleForecaster{}}
	if _, err := rh.Run([]float64{1}); err == nil {
		t.Fatal("invalid config accepted")
	}
	rh = &RecedingHorizon{Cfg: core.DefaultConfig()}
	if _, err := rh.Run([]float64{1}); err == nil {
		t.Fatal("nil forecaster accepted")
	}
	rh = &RecedingHorizon{Cfg: core.DefaultConfig(), Forecast: &OracleForecaster{},
		BatteryJ: 5, CapacityJ: 1}
	if _, err := rh.Run([]float64{1}); err == nil {
		t.Fatal("charge above capacity accepted")
	}
}

// silentForecaster predicts no hours at all.
type silentForecaster struct{}

func (silentForecaster) Observe(float64) error { return nil }
func (silentForecaster) Predict(int) []float64 { return nil }

// TestRecedingHorizonEmptyForecast: a forecaster that predicts nothing
// is an error, not an index out of range.
func TestRecedingHorizonEmptyForecast(t *testing.T) {
	rh := &RecedingHorizon{Cfg: core.DefaultConfig(), CapacityJ: 10, Forecast: silentForecaster{}}
	if _, err := rh.Run([]float64{1, 2}); err == nil {
		t.Fatal("an empty forecast was accepted")
	}
}

func TestRecedingHorizonBanksForTheNight(t *testing.T) {
	// Two days of square-wave sun. The oracle lookahead must achieve
	// strictly more total objective than greedy myopic REAP, because it
	// banks midday surplus (beyond DP1's needs) for the dark hours.
	cfg := core.DefaultConfig()
	var harvest []float64
	for d := 0; d < 2; d++ {
		for h := 0; h < 24; h++ {
			if h >= 9 && h < 15 {
				harvest = append(harvest, 12)
			} else {
				harvest = append(harvest, 0)
			}
		}
	}
	rh := &RecedingHorizon{
		Cfg: cfg, CapacityJ: 200, Horizon: 24,
		Forecast: &OracleForecaster{Trace: harvest},
	}
	look, err := rh.Run(harvest)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := Replay(cfg, harvest, nil)
	if err != nil {
		t.Fatal(err)
	}
	if look.MeanObjective() <= greedy.MeanObjective() {
		t.Fatalf("lookahead %v does not beat greedy %v on square-wave sun",
			look.MeanObjective(), greedy.MeanObjective())
	}
	// Night hours after a sunny day must show activity under lookahead.
	nightActive := 0.0
	for h := 16; h < 24; h++ {
		nightActive += look.Hours[h].ActiveTime
	}
	if nightActive <= 0 {
		t.Fatal("lookahead never active at night despite a 200 J battery")
	}
}

func TestRecedingHorizonWithEWMAOnSolar(t *testing.T) {
	tr, err := solar.September2015()
	if err != nil {
		t.Fatal(err)
	}
	ew, err := forecast.NewEWMA(0.5)
	if err != nil {
		t.Fatal(err)
	}
	rh := &RecedingHorizon{Cfg: core.DefaultConfig(), CapacityJ: 200, Horizon: 24, Forecast: ew}
	res, err := rh.Run(tr.Hours[:168]) // one week
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hours) != 168 {
		t.Fatal("length mismatch")
	}
	// Energy conservation: total consumed cannot exceed total harvested
	// plus initial battery (0).
	var consumed, harvested float64
	for i, h := range res.Hours {
		consumed += h.Consumed
		harvested += tr.Hours[i]
	}
	if consumed > harvested+1e-6 {
		t.Fatalf("consumed %v exceeds harvested %v", consumed, harvested)
	}
	// The battery follows the settle recursion inside its capacity.
	prev := 0.0
	for i, h := range res.Hours {
		want := math.Min(200, math.Max(0, prev+tr.Hours[i]-h.Consumed))
		if h.Battery < 0 || h.Battery > 200 || math.Abs(h.Battery-want) > 1e-9 {
			t.Fatalf("hour %d: battery %v, recursion gives %v", i, h.Battery, want)
		}
		prev = h.Battery
	}
	if res.TotalActiveTime() <= 0 {
		t.Fatal("never active in a September week")
	}
}

func TestRecedingHorizonDefaultHorizon(t *testing.T) {
	rh := &RecedingHorizon{
		Cfg: core.DefaultConfig(), CapacityJ: 10,
		Forecast: &OracleForecaster{Trace: []float64{5}},
	}
	res, err := rh.Run([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if rh.Horizon != 24 {
		t.Fatalf("default horizon %d", rh.Horizon)
	}
	if math.Abs(res.Hours[0].Consumed-res.Hours[0].Alloc.Energy(rh.Cfg)) > 1e-9 {
		t.Fatal("consumed != planned without noise")
	}
}

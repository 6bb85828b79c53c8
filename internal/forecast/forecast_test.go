package forecast

import (
	"math"
	"testing"

	"repro/internal/solar"
)

func TestNewEWMAValidation(t *testing.T) {
	for _, bad := range []float64{0, -1, 1.5, math.NaN()} {
		if _, err := NewEWMA(bad); err == nil {
			t.Errorf("lambda %v accepted", bad)
		}
	}
	e, err := NewEWMA(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Observe(-1); err == nil {
		t.Error("negative harvest accepted")
	}
	if err := e.Observe(math.NaN()); err == nil {
		t.Error("NaN harvest accepted")
	}
	// An accepted +Inf would stay in its slot for good: (1−λ)·Inf + λ·x
	// is Inf, and a controller refuses an infinite budget.
	if err := e.Observe(math.Inf(1)); err == nil {
		t.Error("+Inf harvest accepted")
	}
}

// PredictAt is the one-slot read Predict is built on: it must agree
// with Predict at every offset, wrap negative offsets onto the day, and
// allocate nothing (the sim reads one hour per device-hour through it).
func TestPredictAtMatchesPredict(t *testing.T) {
	e, err := NewEWMA(0.4)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 30; h++ {
		if err := e.Observe(float64(h%7) + 0.5); err != nil {
			t.Fatal(err)
		}
	}
	pred := e.Predict(3 * SlotsPerDay)
	for i, want := range pred {
		if got := e.PredictAt(i); got != want {
			t.Fatalf("PredictAt(%d) = %v, Predict(%d)[%d] = %v", i, got, len(pred), i, want)
		}
		if got := e.PredictAt(i - 3*SlotsPerDay); got != want {
			t.Fatalf("PredictAt(%d) = %v, want %v (a whole number of days earlier)", i-3*SlotsPerDay, got, want)
		}
	}
	var sink float64
	if allocs := testing.AllocsPerRun(100, func() { sink += e.PredictAt(1) }); allocs != 0 {
		t.Fatalf("PredictAt allocated %v times per call", allocs)
	}
	_ = sink
}

func TestEWMAConvergesOnPeriodicSignal(t *testing.T) {
	e, _ := NewEWMA(0.5)
	signal := func(hour int) float64 {
		if hour >= 8 && hour < 16 {
			return 5
		}
		return 0
	}
	// Five identical days.
	for h := 0; h < 5*24; h++ {
		if err := e.Observe(signal(h % 24)); err != nil {
			t.Fatal(err)
		}
	}
	// Predictions for day six must match the pattern exactly (the signal
	// is deterministic, so the EWMA has converged).
	pred := e.Predict(24)
	for h := 0; h < 24; h++ {
		if math.Abs(pred[h]-signal(h)) > 1e-9 {
			t.Fatalf("hour %d: predicted %v, want %v", h, pred[h], signal(h))
		}
	}
}

func TestEWMAAdaptsToChange(t *testing.T) {
	e, _ := NewEWMA(0.5)
	// Three sunny days, then weather turns: noon harvest halves.
	for d := 0; d < 3; d++ {
		for h := 0; h < 24; h++ {
			v := 0.0
			if h == 12 {
				v = 8
			}
			_ = e.Observe(v)
		}
	}
	for d := 0; d < 4; d++ {
		for h := 0; h < 24; h++ {
			v := 0.0
			if h == 12 {
				v = 4
			}
			_ = e.Observe(v)
		}
	}
	// Prediction for the next noon: within 10% of the new level.
	pred := e.Predict(24)
	if math.Abs(pred[12]-4) > 0.4 {
		t.Fatalf("noon prediction %v, want ~4 after adaptation", pred[12])
	}
}

func TestEWMAClockAndUnseenSlots(t *testing.T) {
	e, _ := NewEWMA(0.3)
	if e.next%SlotsPerDay != 0 {
		t.Fatal("clock should start at 0")
	}
	_ = e.Observe(1)
	_ = e.Observe(2)
	if h := e.next % SlotsPerDay; h != 2 {
		t.Fatalf("hour %d, want 2", h)
	}
	// Slot 2 never observed: predicts zero; slot 0 observed: predicts it
	// at the right offset.
	pred := e.Predict(24)
	if pred[0] != 0 {
		t.Fatalf("unseen slot predicted %v", pred[0])
	}
	if pred[22] != 1 { // 2+22 = 24 ≡ slot 0
		t.Fatalf("slot 0 prediction %v, want 1", pred[22])
	}
	if e.Predict(0) != nil || e.Predict(-1) != nil {
		t.Fatal("non-positive horizons should return nil")
	}
}

func TestEWMABeatsNaiveOnSolarTrace(t *testing.T) {
	// On the synthetic September trace, the diurnal EWMA must beat the
	// "predict the previous hour" baseline by a wide margin.
	tr, err := solar.September2015()
	if err != nil {
		t.Fatal(err)
	}
	// Replay the trace, scoring each one-step-ahead prediction before
	// folding the observation in; the first day is warm-up.
	e, _ := NewEWMA(0.5)
	var maeSum float64
	for i, h := range tr.Hours {
		if i >= SlotsPerDay {
			maeSum += math.Abs(e.Predict(1)[0] - h)
		}
		if err := e.Observe(h); err != nil {
			t.Fatal(err)
		}
	}
	mae := maeSum / float64(len(tr.Hours)-SlotsPerDay)
	// Naive last-value predictor.
	var naiveSum float64
	n := 0
	for i := 24; i < len(tr.Hours); i++ {
		naiveSum += math.Abs(tr.Hours[i] - tr.Hours[i-1])
		n++
	}
	naive := naiveSum / float64(n)
	if mae >= naive {
		t.Fatalf("EWMA MAE %v not below naive %v", mae, naive)
	}
	if mae <= 0 {
		t.Fatalf("MAE %v suspiciously perfect on a stochastic trace", mae)
	}
}

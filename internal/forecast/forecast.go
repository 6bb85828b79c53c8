// Package forecast predicts hourly harvested energy for the lookahead
// planner. It implements the exponentially-weighted per-slot estimator of
// Kansal et al. ("Power Management in Energy Harvesting Sensor Networks"),
// the reference the paper cites for its energy-allocation layer: solar
// harvest is strongly diurnal, so the best simple predictor for hour h of
// the day is a decayed average of the harvest observed at hour h on
// previous days.
package forecast

import (
	"fmt"
	"math"
)

// SlotsPerDay is the diurnal period of the estimator.
const SlotsPerDay = 24

// EWMA is the per-slot exponentially weighted moving average predictor.
type EWMA struct {
	// Lambda is the update weight in (0,1]: higher adapts faster but
	// tracks weather noise; Kansal et al. use ~0.5 for solar.
	Lambda float64

	slots [SlotsPerDay]float64
	seen  [SlotsPerDay]bool
	next  int // next slot to observe (hour of day)
}

// NewEWMA creates a predictor starting at hour 0 of the day.
func NewEWMA(lambda float64) (*EWMA, error) {
	if lambda <= 0 || lambda > 1 || math.IsNaN(lambda) {
		return nil, fmt.Errorf("forecast: lambda %v outside (0,1]", lambda)
	}
	return &EWMA{Lambda: lambda}, nil
}

// Observe records the harvest (J) of the current hour and advances the
// clock. A negative, NaN or infinite harvest is refused: an infinite one
// would stay in its slot for good, since (1−λ)·Inf + λ·x is Inf.
func (e *EWMA) Observe(harvest float64) error {
	if harvest < 0 || math.IsNaN(harvest) || math.IsInf(harvest, 1) {
		return fmt.Errorf("forecast: harvest %v must be non-negative and finite", harvest)
	}
	s := e.next % SlotsPerDay
	if e.seen[s] {
		e.slots[s] = (1-e.Lambda)*e.slots[s] + e.Lambda*harvest
	} else {
		e.slots[s] = harvest
		e.seen[s] = true
	}
	e.next++
	return nil
}

// PredictAt returns the expected harvest of the hour i hours after the
// one Observe will record next: PredictAt(0) is the next hour's. A slot
// never observed predicts zero. It reads one slot and allocates nothing,
// so a caller that needs one hour per step reads it here rather than
// through Predict's slice.
//
//reap:hotpath
func (e *EWMA) PredictAt(i int) float64 {
	s := (e.next + i) % SlotsPerDay
	if s < 0 {
		s += SlotsPerDay
	}
	return e.slots[s]
}

// Predict returns the expected harvest for the next k hours, starting at
// the hour Observe will record next: PredictAt(0) through
// PredictAt(k-1).
func (e *EWMA) Predict(k int) []float64 {
	if k <= 0 {
		return nil
	}
	out := make([]float64, k)
	for i := range out {
		out[i] = e.PredictAt(i)
	}
	return out
}

package sim

import (
	"fmt"
	"math"
	"sort"
)

// Statistics helpers for distribution metrics: nearest-rank
// percentiles (the same convention cmd/reapload uses for latency
// quantiles, so sim metrics and serving metrics read alike) and
// fixed-bucket histograms.

// Percentile returns the q-quantile (0 < q ≤ 1) of a sorted sample by
// the nearest-rank rule: the element at rank round(q·n), 1-based,
// clamped into the sample. It matches cmd/reapload's latency
// percentiles digit for digit on the same data. An empty sample
// returns 0.
func Percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Distribution summarizes a sample: count, moments, extremes and the
// nearest-rank p50/p90/p99 tail points. The zero value describes the
// empty sample.
type Distribution struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Summarize computes a Distribution from samples. NaN samples are
// rejected with an error wrapping ErrInvalidScenario — a NaN in a
// metric stream means the simulation itself went wrong, and folding it
// into a percentile would hide that. The input is not modified.
func Summarize(samples []float64) (Distribution, error) {
	if len(samples) == 0 {
		return Distribution{}, nil
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	var sum float64
	for _, v := range sorted {
		if math.IsNaN(v) {
			return Distribution{}, fmt.Errorf("%w: NaN sample in distribution", ErrInvalidScenario)
		}
		sum += v
	}
	sort.Float64s(sorted)
	return Distribution{
		Count: len(sorted),
		Mean:  sum / float64(len(sorted)),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
		P50:   Percentile(sorted, 0.50),
		P90:   Percentile(sorted, 0.90),
		P99:   Percentile(sorted, 0.99),
	}, nil
}

// Histogram is a fixed-width bucket count over [Lo, Lo+Width·len(Counts)).
// Samples below Lo land in the first bucket and samples at or above the
// upper edge land in the last, so the counts always sum to the sample
// size — tails are visible as mass in the edge buckets rather than
// silently dropped.
type Histogram struct {
	Lo     float64 `json:"lo"`
	Width  float64 `json:"width"`
	Counts []int   `json:"counts"`
}

// NewHistogram buckets samples into n equal-width bins spanning
// [lo, hi). It panics only via invalid arguments (n ≤ 0 or hi ≤ lo are
// programming errors, not data errors); NaN samples count into the
// first bucket and should be screened with Summarize first.
func NewHistogram(samples []float64, lo, hi float64, n int) Histogram {
	if n <= 0 || hi <= lo {
		panic(fmt.Sprintf("sim: NewHistogram(n=%d, lo=%v, hi=%v): invalid shape", n, lo, hi))
	}
	h := Histogram{Lo: lo, Width: (hi - lo) / float64(n), Counts: make([]int, n)}
	for _, v := range samples {
		i := int((v - lo) / h.Width)
		if !(i > 0) { // catches NaN as well as the low tail
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		h.Counts[i]++
	}
	return h
}

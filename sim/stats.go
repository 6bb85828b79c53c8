package sim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
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
	return sorted[nearestRank(len(sorted), q)]
}

// nearestRank is the 0-based index of the q-quantile in a sorted sample
// of n > 0: rank round(q·n), 1-based, clamped into the sample. It does
// not decrease as q grows.
func nearestRank(n int, q float64) int {
	return min(max(int(q*float64(n)+0.5)-1, 0), n-1)
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
// into a percentile would hide that. The input is not modified:
// Summarize works on a copy, which summarizeInPlace reorders.
func Summarize(samples []float64) (Distribution, error) {
	return summarizeInPlace(append([]float64(nil), samples...))
}

// summarizeInPlace is Summarize on a sample the caller hands over: it
// reorders samples instead of sorting a copy. It sums the samples in the
// order given, so Mean has the bits of a sum over the input, and takes
// the extremes in the same pass. The three percentiles are nearest-rank
// selections, which read the values a sort would put at those ranks:
// P99 over the whole sample, then P90 within the prefix that P99's
// selection leaves at or below it, then P50 within P90's. That is O(n)
// expected time where a sort is O(n log n), and the sim summarizes up to
// one sample per device-hour.
func summarizeInPlace(samples []float64) (Distribution, error) {
	n := len(samples)
	if n == 0 {
		return Distribution{}, nil
	}
	var sum float64
	lo, hi := samples[0], samples[0]
	for _, v := range samples {
		if math.IsNaN(v) {
			return Distribution{}, fmt.Errorf("%w: NaN sample in distribution", ErrInvalidScenario)
		}
		sum += v
		lo, hi = min(lo, v), max(hi, v)
	}
	d := Distribution{Count: n, Mean: sum / float64(n), Min: lo, Max: hi}
	// Each selection reorders the prefix the previous one left, so each
	// percentile is read before the next selection runs.
	k99, k90, k50 := nearestRank(n, 0.99), nearestRank(n, 0.90), nearestRank(n, 0.50)
	selectRank(samples, k99)
	d.P99 = samples[k99]
	selectRank(samples[:k99+1], k90)
	d.P90 = samples[k90]
	selectRank(samples[:k90+1], k50)
	d.P50 = samples[k50]
	return d, nil
}

// selectRank reorders s, which holds no NaN, so that s[k] is the value
// a sort would put there, no element before it is larger and none after
// it smaller. It is quickselect with a median-of-three pivot and a
// three-way partition, so a run of equal values ends the search in one
// pass. The range left once it holds a dozen elements or fewer, or after
// 2·log₂(n) partitions, is sorted, which bounds the worst case at
// O(n log n).
func selectRank(s []float64, k int) {
	lo, hi := 0, len(s) // the range [lo, hi) holds rank k
	for budget := 2 * bits.Len(uint(len(s))); hi-lo > 12 && budget > 0; budget-- {
		a, b, c := s[lo], s[lo+(hi-lo)/2], s[hi-1]
		p := max(min(a, b), min(max(a, b), c)) // the median of the three
		// Partition [lo, hi) into [lo, lt) < p, [lt, gt) == p, [gt, hi) > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := s[i]; {
			case v < p:
				s[lt], s[i] = v, s[lt]
				lt++
				i++
			case v > p:
				gt--
				s[i], s[gt] = s[gt], v
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return // s[k] == p, and the partition placed it
		}
	}
	slices.Sort(s[lo:hi])
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
		// The tails are placed before converting: int() of +Inf, or of
		// a quotient beyond the int range, is not n-1 or above.
		i := 0 // the low tail, and NaN
		switch {
		case v >= hi:
			i = n - 1
		case v > lo:
			i = min(int((v-lo)/h.Width), n-1)
		}
		h.Counts[i]++
	}
	return h
}

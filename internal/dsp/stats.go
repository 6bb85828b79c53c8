// Package dsp provides the signal-processing primitives the HAR design
// points are built from: the statistical feature bank, the 16-point FFT
// applied to the stretch sensor, the Haar discrete wavelet transform, and
// the decimation/truncation operators behind the "sensing period" knob of
// Figure 2 in the paper.
package dsp

import (
	"math"
	"sort"

	"repro/internal/fpx"
)

// Mean returns the arithmetic mean of x, or 0 for empty input.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the population variance of x.
func Variance(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}

// Std returns the population standard deviation of x.
func Std(x []float64) float64 { return math.Sqrt(Variance(x)) }

// Min returns the minimum of x, or 0 for empty input.
func Min(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := x[0]
	for _, v := range x[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum of x, or 0 for empty input.
func Max(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Range returns max - min.
func Range(x []float64) float64 { return Max(x) - Min(x) }

// Energy returns the signal energy Σx².
func Energy(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}

// ZeroCrossings counts sign changes in x (zeros are skipped).
func ZeroCrossings(x []float64) int {
	count := 0
	prev := 0.0
	for _, v := range x {
		if fpx.Zero(v) {
			continue
		}
		if !fpx.Zero(prev) && math.Signbit(v) != math.Signbit(prev) {
			count++
		}
		prev = v
	}
	return count
}

// MeanCrossings counts crossings of the signal mean, the zero-crossing
// rate of the detrended signal.
func MeanCrossings(x []float64) int {
	if len(x) == 0 {
		return 0
	}
	m := Mean(x)
	shifted := make([]float64, len(x))
	for i, v := range x {
		shifted[i] = v - m
	}
	return ZeroCrossings(shifted)
}

// Percentile returns the p-quantile of x for p in [0,1] using linear
// interpolation between order statistics.
func Percentile(x []float64, p float64) float64 {
	if len(x) == 0 {
		return 0
	}
	sorted := append([]float64(nil), x...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// IQR returns the interquartile range (75th minus 25th percentile).
func IQR(x []float64) float64 { return Percentile(x, 0.75) - Percentile(x, 0.25) }

package dsp

import "math"

// ResampleLinear resamples x to exactly n points using linear
// interpolation. It is used to reduce the 160-sample stretch window to the
// 16 samples fed to the FFT feature.
func ResampleLinear(x []float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	if len(x) == 0 {
		return out
	}
	if len(x) == 1 || n == 1 {
		for i := range out {
			out[i] = x[0]
		}
		return out
	}
	scale := float64(len(x)-1) / float64(n-1)
	for i := range out {
		pos := float64(i) * scale
		lo := int(math.Floor(pos))
		if lo >= len(x)-1 {
			out[i] = x[len(x)-1]
			continue
		}
		frac := pos - float64(lo)
		out[i] = x[lo]*(1-frac) + x[lo+1]*frac
	}
	return out
}

// Truncate keeps the leading fraction of the window, modelling the
// "sensing period" knob of Figure 2: a sensor switched off after 50% of
// the activity window only contributes the first half of its samples.
// Fractions outside (0,1] are clamped.
func Truncate(x []float64, fraction float64) []float64 {
	if fraction >= 1 {
		return append([]float64(nil), x...)
	}
	if fraction <= 0 {
		return nil
	}
	n := int(math.Round(float64(len(x)) * fraction))
	if n > len(x) {
		n = len(x)
	}
	return append([]float64(nil), x[:n]...)
}

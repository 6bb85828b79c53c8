package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
)

// FFT computes the in-place radix-2 decimation-in-time fast Fourier
// transform of x. The length of x must be a power of two; the paper's
// stretch-sensor feature uses a 16-point transform.
func FFT(x []complex128) error {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) != 0 {
		return fmt.Errorf("dsp: FFT length %d is not a power of two", n)
	}

	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}

	// Butterflies.
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			half := length / 2
			for k := 0; k < half; k++ {
				u := x[start+k]
				v := x[start+k+half] * w
				x[start+k] = u + v
				x[start+k+half] = u - v
				w *= wl
			}
		}
	}
	return nil
}

// RealFFTMagnitudes resamples x to n points (n a power of two), applies the
// FFT and returns the magnitudes of the first n/2+1 bins (DC through
// Nyquist). This is exactly the paper's "16-FFT of stretch" feature: the
// 160-sample stretch window is reduced to 16 samples and transformed, and
// the magnitude spectrum becomes the feature sub-vector.
func RealFFTMagnitudes(x []float64, n int) ([]float64, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dsp: FFT size %d is not a positive power of two", n)
	}
	resampled := ResampleLinear(x, n)
	buf := make([]complex128, n)
	for i, v := range resampled {
		buf[i] = complex(v, 0)
	}
	if err := FFT(buf); err != nil {
		return nil, err
	}
	mags := make([]float64, n/2+1)
	for i := range mags {
		mags[i] = cmplx.Abs(buf[i]) / float64(n)
	}
	return mags, nil
}

package dsp

import (
	"fmt"
	"math"
)

// HaarDWT computes one level of the Haar discrete wavelet transform:
// the first half of the result holds approximation coefficients, the
// second half detail coefficients. The input length must be even.
func HaarDWT(x []float64) ([]float64, error) {
	n := len(x)
	if n%2 != 0 {
		return nil, fmt.Errorf("dsp: Haar DWT input length %d is odd", n)
	}
	out := make([]float64, n)
	half := n / 2
	inv := 1 / math.Sqrt2
	for i := 0; i < half; i++ {
		a, b := x[2*i], x[2*i+1]
		out[i] = (a + b) * inv
		out[half+i] = (a - b) * inv
	}
	return out, nil
}

// HaarMultiLevel applies `levels` cascaded Haar decompositions to the
// approximation band. The returned slice is laid out as
// [A_L | D_L | D_{L-1} | ... | D_1] where A_L occupies n/2^L entries.
// The input length must be divisible by 2^levels.
func HaarMultiLevel(x []float64, levels int) ([]float64, error) {
	n := len(x)
	if levels < 0 {
		return nil, fmt.Errorf("dsp: negative DWT levels %d", levels)
	}
	if n%(1<<uint(levels)) != 0 {
		return nil, fmt.Errorf("dsp: length %d not divisible by 2^%d", n, levels)
	}
	out := append([]float64(nil), x...)
	span := n
	for l := 0; l < levels; l++ {
		transformed, err := HaarDWT(out[:span])
		if err != nil {
			return nil, err
		}
		copy(out[:span], transformed)
		span /= 2
	}
	return out, nil
}

// HaarBandEnergies returns the energy in the final approximation band and
// each detail band of a multi-level decomposition, ordered coarse to fine.
// This compact summary is the paper's "DWT of accel" feature family.
func HaarBandEnergies(x []float64, levels int) ([]float64, error) {
	coeffs, err := HaarMultiLevel(x, levels)
	if err != nil {
		return nil, err
	}
	n := len(x)
	energies := make([]float64, 0, levels+1)
	span := n >> uint(levels)
	energies = append(energies, Energy(coeffs[:span])) // approximation
	lo := span
	for l := levels; l >= 1; l-- {
		hi := lo * 2
		energies = append(energies, Energy(coeffs[lo:hi]))
		lo = hi
	}
	return energies, nil
}

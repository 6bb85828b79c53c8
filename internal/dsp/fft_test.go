package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// dft computes the discrete Fourier transform by direct summation: an
// O(n²) oracle independent of FFT's butterflies.
func dft(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			s += x[t] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

func TestFFTMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := dft(x)
		got := append([]complex128(nil), x...)
		if err := FFT(got); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for k := range got {
			if cmplx.Abs(got[k]-want[k]) > 1e-9*(1+cmplx.Abs(want[k])) {
				t.Fatalf("n=%d bin %d: FFT %v != DFT %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{3, 5, 6, 7, 12, 100} {
		if err := FFT(make([]complex128, n)); err == nil {
			t.Errorf("FFT accepted length %d", n)
		}
	}
	if err := FFT(nil); err != nil {
		t.Errorf("FFT of empty input should be a no-op, got %v", err)
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := make([]complex128, 64)
	var timeEnergy float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
		timeEnergy += real(x[i]) * real(x[i])
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	var freqEnergy float64
	for _, v := range x {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	freqEnergy /= 64
	if !approx(timeEnergy, freqEnergy, 1e-8*(1+timeEnergy)) {
		t.Fatalf("Parseval violated: time %v vs freq %v", timeEnergy, freqEnergy)
	}
}

func TestFFTPureTone(t *testing.T) {
	// A pure complex exponential at bin k concentrates all energy in bin k.
	const n, k = 16, 3
	x := make([]complex128, n)
	for i := range x {
		ang := 2 * math.Pi * k * float64(i) / n
		x[i] = cmplx.Exp(complex(0, ang))
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for bin := range x {
		mag := cmplx.Abs(x[bin])
		if bin == k && !approx(mag, n, 1e-9) {
			t.Fatalf("bin %d magnitude %v, want %v", bin, mag, float64(n))
		}
		if bin != k && mag > 1e-9 {
			t.Fatalf("bin %d magnitude %v, want 0", bin, mag)
		}
	}
}

func TestRealFFTMagnitudes(t *testing.T) {
	// DC signal: all energy in bin 0.
	dc := make([]float64, 160)
	for i := range dc {
		dc[i] = 2.5
	}
	mags, err := RealFFTMagnitudes(dc, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(mags) != 9 {
		t.Fatalf("got %d bins, want 9 (n/2+1)", len(mags))
	}
	if !approx(mags[0], 2.5, 1e-9) {
		t.Errorf("DC bin = %v, want 2.5", mags[0])
	}
	for i := 1; i < len(mags); i++ {
		if mags[i] > 1e-9 {
			t.Errorf("bin %d = %v, want 0 for DC input", i, mags[i])
		}
	}
	if _, err := RealFFTMagnitudes(dc, 15); err == nil {
		t.Error("accepted non-power-of-two size")
	}
	if _, err := RealFFTMagnitudes(dc, 0); err == nil {
		t.Error("accepted zero size")
	}
}

func TestRealFFTMagnitudesDetectsPeriodicity(t *testing.T) {
	// A 2 Hz sine sampled at 10 Hz for 1.6 s (16 samples after resampling
	// a 160-sample 100 Hz window): energy lands in a nonzero bin,
	// distinguishing periodic motion (walk) from static postures.
	x := make([]float64, 160)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 2 * float64(i) / 100)
	}
	mags, err := RealFFTMagnitudes(x, 16)
	if err != nil {
		t.Fatal(err)
	}
	peak, peakBin := 0.0, 0
	for i, m := range mags {
		if m > peak {
			peak = m
			peakBin = i
		}
	}
	if peakBin == 0 {
		t.Fatalf("peak in DC bin; spectrum %v", mags)
	}
}

package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHaarDWTKnownValues(t *testing.T) {
	x := []float64{4, 6, 10, 12, 8, 6, 5, 5}
	out, err := HaarDWT(x)
	if err != nil {
		t.Fatal(err)
	}
	s := math.Sqrt2
	want := []float64{10 / s, 22 / s, 14 / s, 10 / s, -2 / s, -2 / s, 2 / s, 0}
	for i := range want {
		if !approx(out[i], want[i], 1e-12) {
			t.Fatalf("coefficient %d = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestHaarDWTRejectsOddLength(t *testing.T) {
	if _, err := HaarDWT(make([]float64, 5)); err == nil {
		t.Error("odd length accepted")
	}
}

func TestHaarEnergyPreservation(t *testing.T) {
	// Haar is orthonormal: coefficient energy equals signal energy.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, 64)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		coeffs, err := HaarMultiLevel(x, 3)
		if err != nil {
			return false
		}
		return approx(Energy(coeffs), Energy(x), 1e-9*(1+Energy(x)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHaarMultiLevelValidation(t *testing.T) {
	if _, err := HaarMultiLevel(make([]float64, 12), 3); err == nil {
		t.Error("length not divisible by 2^levels accepted")
	}
	if _, err := HaarMultiLevel(make([]float64, 8), -1); err == nil {
		t.Error("negative levels accepted")
	}
	out, err := HaarMultiLevel([]float64{1, 2, 3, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []float64{1, 2, 3, 4} {
		if out[i] != v {
			t.Fatal("zero levels must be identity")
		}
	}
}

func TestHaarBandEnergies(t *testing.T) {
	// Constant signal: all energy in the approximation band.
	x := make([]float64, 16)
	for i := range x {
		x[i] = 3
	}
	bands, err := HaarBandEnergies(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(bands) != 4 {
		t.Fatalf("got %d bands, want 4", len(bands))
	}
	if !approx(bands[0], Energy(x), 1e-9) {
		t.Errorf("approximation energy %v, want %v", bands[0], Energy(x))
	}
	for i := 1; i < len(bands); i++ {
		if bands[i] > 1e-9 {
			t.Errorf("detail band %d energy %v, want 0 for constant input", i, bands[i])
		}
	}
	// Fast alternation: energy concentrates in the finest detail band.
	alt := make([]float64, 16)
	for i := range alt {
		alt[i] = float64(1 - 2*(i%2))
	}
	bands, err = HaarBandEnergies(alt, 3)
	if err != nil {
		t.Fatal(err)
	}
	finest := bands[len(bands)-1]
	if !approx(finest, Energy(alt), 1e-9) {
		t.Errorf("finest band %v, want all the energy %v; bands %v", finest, Energy(alt), bands)
	}
	if _, err := HaarBandEnergies(make([]float64, 10), 2); err == nil {
		t.Error("invalid length accepted")
	}
}

func TestHaarBandEnergiesSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, 32)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		bands, err := HaarBandEnergies(x, 4)
		if err != nil {
			return false
		}
		var sum float64
		for _, b := range bands {
			if b < 0 {
				return false
			}
			sum += b
		}
		return approx(sum, Energy(x), 1e-9*(1+Energy(x)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

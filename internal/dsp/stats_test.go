package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStd(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(x); !approx(m, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(x); !approx(v, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", v)
	}
	if s := Std(x); !approx(s, 2, 1e-12) {
		t.Errorf("Std = %v, want 2", s)
	}
}

func TestEmptyInputs(t *testing.T) {
	empty := []float64{}
	checks := map[string]float64{
		"Mean":     Mean(empty),
		"Variance": Variance(empty),
		"Std":      Std(empty),
		"Min":      Min(empty),
		"Max":      Max(empty),
		"Energy":   Energy(empty),
		"Pctl":     Percentile(empty, 0.5),
	}
	for name, v := range checks {
		if v != 0 {
			t.Errorf("%s(empty) = %v, want 0", name, v)
		}
	}
	if ZeroCrossings(empty) != 0 || MeanCrossings(empty) != 0 {
		t.Error("crossings of empty input should be 0")
	}
}

func TestMinMaxRange(t *testing.T) {
	x := []float64{3, -1, 4, 1, 5, -9, 2, 6}
	if Min(x) != -9 || Max(x) != 6 {
		t.Fatalf("min=%v max=%v", Min(x), Max(x))
	}
	if Range(x) != 15 {
		t.Fatalf("range=%v", Range(x))
	}
}

func TestEnergy(t *testing.T) {
	x := []float64{3, 4}
	if !approx(Energy(x), 25, 1e-12) {
		t.Errorf("Energy = %v", Energy(x))
	}
}

func TestZeroCrossings(t *testing.T) {
	if n := ZeroCrossings([]float64{1, -1, 1, -1}); n != 3 {
		t.Errorf("ZeroCrossings = %d, want 3", n)
	}
	if n := ZeroCrossings([]float64{1, 0, -1}); n != 1 {
		t.Errorf("ZeroCrossings with zero sample = %d, want 1", n)
	}
	if n := ZeroCrossings([]float64{1, 2, 3}); n != 0 {
		t.Errorf("ZeroCrossings of positive signal = %d, want 0", n)
	}
}

func TestMeanCrossings(t *testing.T) {
	// A sine at 2 Hz over 1 s crosses its mean 4 times.
	x := make([]float64, 100)
	for i := range x {
		x[i] = 5 + math.Sin(2*math.Pi*2*float64(i)/100)
	}
	if n := MeanCrossings(x); n < 3 || n > 5 {
		t.Errorf("MeanCrossings = %d, want ~4", n)
	}
}

func TestPercentileAndIQR(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	if p := Percentile(x, 0.5); !approx(p, 3, 1e-12) {
		t.Errorf("median = %v", p)
	}
	if p := Percentile(x, 0); p != 1 {
		t.Errorf("p0 = %v", p)
	}
	if p := Percentile(x, 1); p != 5 {
		t.Errorf("p100 = %v", p)
	}
	if v := IQR(x); !approx(v, 2, 1e-12) {
		t.Errorf("IQR = %v, want 2", v)
	}
	// Percentile must not mutate its input.
	y := []float64{3, 1, 2}
	Percentile(y, 0.5)
	if y[0] != 3 || y[1] != 1 || y[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestStatProperties(t *testing.T) {
	// Shift invariance of variance; scale behaviour of std.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		x := make([]float64, n)
		shifted := make([]float64, n)
		scaled := make([]float64, n)
		const shift, scale = 17.5, 3.0
		for i := range x {
			x[i] = rng.NormFloat64()
			shifted[i] = x[i] + shift
			scaled[i] = x[i] * scale
		}
		if !approx(Variance(shifted), Variance(x), 1e-8*(1+Variance(x))) {
			return false
		}
		if !approx(Std(scaled), scale*Std(x), 1e-8*(1+Std(x))) {
			return false
		}
		if Min(x) > Mean(x)+1e-12 || Max(x) < Mean(x)-1e-12 {
			return false
		}
		// Mean square = mean² + variance.
		lhs := Energy(x) / float64(n)
		rhs := Mean(x)*Mean(x) + Variance(x)
		return approx(lhs, rhs, 1e-8*(1+rhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

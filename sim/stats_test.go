package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// oraclePercentile is an independent nearest-rank implementation: sort a
// copy, take the ceiling-rounded rank. Deliberately written differently
// from Percentile (which indexes a pre-sorted slice with clamping) so a
// shared bug cannot hide.
func oraclePercentile(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Floor(q*float64(len(s)) + 0.5))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// oracleDistribution is the sort-based Distribution: sort a copy, read
// the extremes off its ends and the ceiling-rounded ranks out of it, and
// sum the samples in their given order.
func oracleDistribution(samples []float64) Distribution {
	n := len(samples)
	if n == 0 {
		return Distribution{}
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	at := func(q float64) float64 {
		rank := int(math.Floor(q*float64(n) + 0.5))
		return sorted[min(max(rank, 1), n)-1]
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return Distribution{Count: n, Mean: sum / float64(n), Min: sorted[0], Max: sorted[n-1],
		P50: at(0.50), P90: at(0.90), P99: at(0.99)}
}

// sameDistribution reports whether got equals want field for field,
// with the means equal bit for bit.
func sameDistribution(got, want Distribution) bool {
	return got == want && math.Float64bits(got.Mean) == math.Float64bits(want.Mean)
}

// Summarize selects its percentiles in place on a copy instead of
// sorting one. Whatever the shape of the sample, it must return exactly
// the sort oracle's distribution, with the mean's bits, and leave its
// input as it was.
func TestSummarizeMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct {
		name string
		gen  func(n int) []float64
	}{
		{"normal", func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = rng.NormFloat64()
			}
			return s
		}},
		{"heavy duplicates", func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = float64(rng.Intn(4)) / 4
			}
			return s
		}},
		{"constant", func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = 0.76
			}
			return s
		}},
		{"constant runs", func(n int) []float64 {
			s := make([]float64, 0, n)
			for len(s) < n {
				v, run := rng.Float64(), 1+rng.Intn(50)
				for j := 0; j < run && len(s) < n; j++ {
					s = append(s, v)
				}
			}
			return s
		}},
		{"sorted", func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = float64(i/3) * 0.01
			}
			return s
		}},
		{"reversed", func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = float64((n-i)/3) * 0.01
			}
			return s
		}},
		{"mostly one value", func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				if s[i] = 1; rng.Intn(5) == 0 {
					s[i] = rng.Float64() / 10
				}
			}
			return s
		}},
	}
	var sizes []int
	for n := 1; n <= 300; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 1000, 4097, 6912, 92160, 200_000)
	for _, shape := range shapes {
		name := shape.name
		for _, n := range sizes {
			samples := shape.gen(n)
			in := append([]float64(nil), samples...)
			got, err := Summarize(samples)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			if want := oracleDistribution(samples); !sameDistribution(got, want) {
				t.Fatalf("%s n=%d: Summarize %+v, sort oracle %+v", name, n, got, want)
			}
			for i := range in {
				if math.Float64bits(samples[i]) != math.Float64bits(in[i]) {
					t.Fatalf("%s n=%d: Summarize changed sample %d from %v to %v", name, n, i, in[i], samples[i])
				}
			}
		}
	}
}

// Percentile must agree with the sort-based oracle over random samples
// of every small size, with heavy ties, across the quantiles the
// Summary reports and the reapload latency path uses.
func TestPercentileMatchesOracle(t *testing.T) {
	quantiles := []float64{0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1}
	rng := rand.New(rand.NewSource(42))
	for n := 1; n <= 60; n++ {
		samples := make([]float64, n)
		for i := range samples {
			// Coarse quantization forces ties in nearly every sample.
			samples[i] = math.Floor(rng.Float64()*8) / 8
		}
		sorted := append([]float64(nil), samples...)
		sort.Float64s(sorted)
		for _, q := range quantiles {
			got := Percentile(sorted, q)
			want := oraclePercentile(samples, q)
			if got != want {
				t.Fatalf("n=%d q=%v: Percentile=%v oracle=%v (sorted %v)", n, q, got, want, sorted)
			}
		}
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	if got := Percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty sample: got %v, want 0", got)
	}
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := Percentile([]float64{7}, q); got != 7 {
			t.Fatalf("single sample at q=%v: got %v, want 7", q, got)
		}
	}
	// All-ties: every quantile is the tied value.
	ties := []float64{3, 3, 3, 3, 3}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if got := Percentile(ties, q); got != 3 {
			t.Fatalf("tied sample at q=%v: got %v", q, got)
		}
	}
}

func TestSummarize(t *testing.T) {
	d, err := Summarize(nil)
	if err != nil || d != (Distribution{}) {
		t.Fatalf("empty sample: got %+v, %v", d, err)
	}
	d, err = Summarize([]float64{2, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if d.Count != 3 || d.Mean != 2 || d.Min != 1 || d.Max != 3 || d.P50 != 2 {
		t.Fatalf("basic sample: got %+v", d)
	}
	// The input must not be reordered.
	in := []float64{5, 1, 4}
	if _, err := Summarize(in); err != nil {
		t.Fatal(err)
	}
	if in[0] != 5 || in[1] != 1 || in[2] != 4 {
		t.Fatalf("Summarize mutated its input: %v", in)
	}
	if _, err := Summarize([]float64{1, math.NaN()}); !errors.Is(err, ErrInvalidScenario) {
		t.Fatalf("NaN sample: got %v, want ErrInvalidScenario", err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{-1, 0, 0.04, 0.5, 0.96, 2, math.NaN(), math.Inf(1), 1e300, math.Inf(-1)}, 0, 1, 20)
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 10 {
		t.Fatalf("histogram dropped samples: %d of 10 counted (%v)", total, h.Counts)
	}
	// Low tail and NaN land in the first bucket, high tail in the last,
	// however far out: +Inf and 1e300 convert to no int at or above 19.
	if h.Counts[0] != 5 { // -1, 0, 0.04, NaN, -Inf
		t.Fatalf("first bucket holds %d, want 5 (%v)", h.Counts[0], h.Counts)
	}
	if h.Counts[19] != 4 { // 0.96, 2, +Inf, 1e300
		t.Fatalf("last bucket holds %d, want 4 (%v)", h.Counts[19], h.Counts)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistogram(n=0) did not panic")
		}
	}()
	NewHistogram(nil, 0, 1, 0)
}

// meanCI returns the two-sided confidence interval for the mean of
// samples at the given confidence level (e.g. 0.95), using the normal
// approximation with the sample standard deviation. It needs at least
// two samples and a confidence in (0, 1); NaN samples are rejected.
//
// It is the statistical golden harness: a multi-seed scenario test runs
// the same world under k seeds, feeds the per-seed metric here, and
// asserts the interval lies inside a pinned band — bounding a
// stochastic outcome instead of byte-pinning it.
func meanCI(samples []float64, confidence float64) (lo, hi float64, err error) {
	if len(samples) < 2 {
		return 0, 0, fmt.Errorf("%w: confidence interval needs >= 2 samples, got %d", ErrInvalidScenario, len(samples))
	}
	if !(confidence > 0 && confidence < 1) {
		return 0, 0, fmt.Errorf("%w: confidence %v outside (0, 1)", ErrInvalidScenario, confidence)
	}
	var sum float64
	for _, v := range samples {
		if math.IsNaN(v) {
			return 0, 0, fmt.Errorf("%w: NaN sample in confidence interval", ErrInvalidScenario)
		}
		sum += v
	}
	n := float64(len(samples))
	mean := sum / n
	var ss float64
	for _, v := range samples {
		d := v - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / (n - 1))
	z := math.Sqrt2 * math.Erfinv(confidence)
	half := z * sd / math.Sqrt(n)
	return mean - half, mean + half, nil
}

func TestMeanCI(t *testing.T) {
	// Constant samples: zero-width interval at the mean.
	lo, hi, err := meanCI([]float64{4, 4, 4, 4}, 0.95)
	if err != nil || lo != 4 || hi != 4 {
		t.Fatalf("constant samples: [%v, %v], %v", lo, hi, err)
	}
	samples := []float64{1, 2, 3, 4, 5}
	lo, hi, err = meanCI(samples, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if mean := 3.0; lo >= mean || hi <= mean || math.Abs((lo+hi)/2-mean) > 1e-12 {
		t.Fatalf("interval [%v, %v] not centered on the mean %v", lo, hi, mean)
	}
	// Higher confidence must widen the interval.
	lo99, hi99, err := meanCI(samples, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if hi99-lo99 <= hi-lo {
		t.Fatalf("99%% interval [%v, %v] no wider than 95%% [%v, %v]", lo99, hi99, lo, hi)
	}
	for name, call := range map[string]func() error{
		"one sample":     func() error { _, _, err := meanCI([]float64{1}, 0.95); return err },
		"zero conf":      func() error { _, _, err := meanCI(samples, 0); return err },
		"full conf":      func() error { _, _, err := meanCI(samples, 1); return err },
		"NaN sample":     func() error { _, _, err := meanCI([]float64{1, math.NaN()}, 0.95); return err },
		"empty":          func() error { _, _, err := meanCI(nil, 0.95); return err },
		"negative conf":  func() error { _, _, err := meanCI(samples, -0.5); return err },
		"overunity conf": func() error { _, _, err := meanCI(samples, 1.5); return err },
	} {
		if err := call(); !errors.Is(err, ErrInvalidScenario) {
			t.Errorf("%s: got %v, want ErrInvalidScenario", name, err)
		}
	}
}

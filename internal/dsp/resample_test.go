package dsp

import "testing"

func TestResampleLinearIdentityAndEndpoints(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	same := ResampleLinear(x, 4)
	for i := range x {
		if !approx(same[i], x[i], 1e-12) {
			t.Fatalf("identity resample mismatch: %v", same)
		}
	}
	down := ResampleLinear(x, 2)
	if down[0] != 0 || down[1] != 3 {
		t.Fatalf("downsample endpoints %v, want [0 3]", down)
	}
	up := ResampleLinear([]float64{0, 2}, 3)
	if !approx(up[1], 1, 1e-12) {
		t.Fatalf("upsample midpoint %v, want 1", up[1])
	}
}

func TestResampleLinearEdgeCases(t *testing.T) {
	if out := ResampleLinear(nil, 4); len(out) != 4 {
		t.Fatal("empty input should produce zeroed output")
	}
	if out := ResampleLinear([]float64{7}, 3); out[0] != 7 || out[2] != 7 {
		t.Fatalf("single sample broadcast failed: %v", out)
	}
	if out := ResampleLinear([]float64{1, 2, 3}, 1); out[0] != 1 {
		t.Fatalf("n=1 should return first sample, got %v", out)
	}
	if out := ResampleLinear([]float64{1, 2}, 0); out != nil {
		t.Fatalf("n=0 should return nil, got %v", out)
	}
}

func TestResamplePreservesLinearRamps(t *testing.T) {
	// Linear interpolation reproduces linear signals exactly at any rate.
	x := make([]float64, 160)
	for i := range x {
		x[i] = 0.5 * float64(i)
	}
	out := ResampleLinear(x, 16)
	for i, v := range out {
		want := 0.5 * float64(i) * 159 / 15
		if !approx(v, want, 1e-9) {
			t.Fatalf("sample %d = %v, want %v", i, v, want)
		}
	}
}

func TestTruncate(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Truncate(x, 0.5); len(got) != 5 || got[4] != 5 {
		t.Fatalf("50%% truncation = %v", got)
	}
	if got := Truncate(x, 0.375); len(got) != 4 {
		t.Fatalf("0.375 truncation length = %d, want 4 (rounded)", len(got))
	}
	if got := Truncate(x, 1.5); len(got) != 10 {
		t.Fatalf("over-unity fraction should keep everything: %v", got)
	}
	if got := Truncate(x, 0); got != nil {
		t.Fatalf("zero fraction should return nil, got %v", got)
	}
	cp := Truncate(x, 1)
	cp[0] = 42
	if x[0] == 42 {
		t.Fatal("Truncate must copy, not alias")
	}
}

package fpx

import (
	"math"
	"testing"
)

func TestEq(t *testing.T) {
	if !Eq(1.5, 1.5) {
		t.Error("Eq(1.5, 1.5) = false")
	}
	if Eq(1.5, 1.5000001) {
		t.Error("Eq on distinct values = true")
	}
	if Eq(math.NaN(), math.NaN()) {
		t.Error("Eq(NaN, NaN) = true, want false (matches ==)")
	}
}

func TestZero(t *testing.T) {
	if !Zero(0) || !Zero(math.Copysign(0, -1)) {
		t.Error("Zero must accept both signed zeros")
	}
	if Zero(math.SmallestNonzeroFloat64) || Zero(math.NaN()) {
		t.Error("Zero accepted a non-zero value")
	}
}

func TestNear(t *testing.T) {
	if !Near(1.0, 1.0+1e-12, 1e-9) {
		t.Error("Near rejected values within tolerance")
	}
	if Near(1.0, 1.1, 1e-9) {
		t.Error("Near accepted values outside tolerance")
	}
	if !Near(math.Inf(1), math.Inf(1), 0) {
		t.Error("Near(+Inf, +Inf) = false")
	}
	if Near(math.NaN(), 0, 1e9) {
		t.Error("Near(NaN, 0) = true")
	}
	if !InDelta(2, 2.5, 0.5) {
		t.Error("InDelta boundary case failed")
	}
}

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

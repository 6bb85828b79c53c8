package core

import (
	"math"
	"testing"
)

func TestDesignPointValidate(t *testing.T) {
	good := DesignPoint{Name: "ok", Accuracy: 0.9, Power: 1e-3}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid DP rejected: %v", err)
	}
	bad := []DesignPoint{
		{Accuracy: -0.1, Power: 1},
		{Accuracy: 1.1, Power: 1},
		{Accuracy: math.NaN(), Power: 1},
		{Accuracy: 0.5, Power: 0},
		{Accuracy: 0.5, Power: -1},
		{Accuracy: 0.5, Power: math.NaN()},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: invalid DP %+v accepted", i, d)
		}
	}
}

func TestEnergyPerPeriod(t *testing.T) {
	d := DesignPoint{Accuracy: 0.94, Power: 2.76e-3}
	if e := d.EnergyPerPeriod(3600); !approx(e, 9.936, 1e-9) {
		t.Fatalf("DP1 hourly energy = %v, want 9.936 J (the paper's 9.9 J)", e)
	}
}

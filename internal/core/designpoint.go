package core

import (
	"errors"
	"fmt"
	"math"
)

// DesignPoint is one operating configuration of the application with a
// characterized recognition accuracy and average power draw. In the HAR
// case study a design point fixes the accelerometer axes, the sensing
// period, the feature set and the classifier structure; here only the two
// numbers REAP consumes remain.
type DesignPoint struct {
	// Name identifies the design point (e.g. "DP1").
	Name string
	// Accuracy is the recognition accuracy in [0, 1].
	Accuracy float64
	// Power is the average power consumption in watts while this design
	// point is active (sensing + feature generation + classification +
	// transmission, amortized over the activity window).
	Power float64
}

// Validate checks that the design point's parameters are physically
// meaningful.
func (d DesignPoint) Validate() error {
	if math.IsNaN(d.Accuracy) || d.Accuracy < 0 || d.Accuracy > 1 {
		return fmt.Errorf("%w: design point %q accuracy %v outside [0,1]", ErrInvalidConfig, d.Name, d.Accuracy)
	}
	if math.IsNaN(d.Power) || d.Power <= 0 {
		return fmt.Errorf("%w: design point %q power %v must be positive", ErrInvalidConfig, d.Name, d.Power)
	}
	return nil
}

// EnergyPerPeriod returns the energy (J) the design point consumes if it
// runs for the whole period tp (seconds).
func (d DesignPoint) EnergyPerPeriod(tp float64) float64 { return d.Power * tp }

// ErrNoDesignPoints is returned when a configuration has an empty DP list.
var ErrNoDesignPoints = errors.New("core: configuration has no design points")

// PaperDesignPoints returns the five Pareto-optimal design points of
// Table 2 in the paper, with power expressed in watts. These are the
// reference values measured on the TI-Sensortag prototype; the
// har/energy packages regenerate comparable values from simulation.
func PaperDesignPoints() []DesignPoint {
	return []DesignPoint{
		{Name: "DP1", Accuracy: 0.94, Power: 2.76e-3},
		{Name: "DP2", Accuracy: 0.93, Power: 2.30e-3},
		{Name: "DP3", Accuracy: 0.92, Power: 1.82e-3},
		{Name: "DP4", Accuracy: 0.90, Power: 1.64e-3},
		{Name: "DP5", Accuracy: 0.76, Power: 1.20e-3},
	}
}

package device

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/har"
	"repro/internal/synth"
)

// ClosedLoop couples the REAP controller (with its battery and energy-
// accounting feedback) to the simulator, and optionally validates the
// planned expected accuracy by pushing real synthetic sensor windows
// through the trained design-point classifiers.
type ClosedLoop struct {
	// Controller owns the configuration, battery and carry accounting.
	Controller *core.Controller
	// Models, when non-nil, provides the trained classifier for each
	// design point (index-aligned with the configuration's DPs) so hours
	// can be validated sample-by-sample.
	Models []*har.Model
	// Users supplies subjects for realized-accuracy validation; Run
	// requires at least one when Models is set.
	Users []synth.UserProfile
	// WindowsPerHour is how many windows are classified per active DP
	// per hour during validation (sampling keeps month-scale runs fast;
	// a real hour holds 2250 windows).
	WindowsPerHour int
	// ExecutionNoise perturbs consumption as in Simulator.
	ExecutionNoise float64
	// Seed drives sampling and noise.
	Seed int64
}

// HourOutcome extends HourRecord with realized (measured) accuracy.
type HourOutcome struct {
	HourRecord
	// RealizedAccuracy is the fraction of classified sample windows that
	// were correct, weighted by DP usage; NaN-free: hours with no active
	// time report 0.
	RealizedAccuracy float64
	// Battery is the controller's battery level after the hour.
	Battery float64
}

// Run simulates the closed loop over an hourly harvest sequence (J).
func (cl *ClosedLoop) Run(harvest []float64) ([]HourOutcome, error) {
	if cl.Controller == nil {
		return nil, fmt.Errorf("device: closed loop needs a controller")
	}
	cfg := cl.Controller.Config()
	if cl.Models != nil && len(cl.Models) != len(cfg.DPs) {
		return nil, fmt.Errorf("device: %d models for %d design points",
			len(cl.Models), len(cfg.DPs))
	}
	if cl.Models != nil && len(cl.Users) == 0 {
		return nil, fmt.Errorf("device: validating with models needs at least one user")
	}
	if cl.WindowsPerHour <= 0 {
		cl.WindowsPerHour = 24
	}
	rng := rand.New(rand.NewSource(cl.Seed))
	var out []HourOutcome
	for _, h := range harvest {
		alloc, err := cl.Controller.Step(h)
		if err != nil {
			return nil, err
		}
		cfg := cl.Controller.Config()
		planned := alloc.Energy(cfg)
		consumed := planned
		if cl.ExecutionNoise > 0 {
			consumed = planned * (1 + rng.NormFloat64()*cl.ExecutionNoise)
			if consumed < 0 {
				consumed = 0
			}
		}
		if err := cl.Controller.Report(consumed); err != nil {
			return nil, err
		}
		o := HourOutcome{
			HourRecord: HourRecord{
				Budget:           cl.Controller.LastBudget(),
				Alloc:            alloc,
				Consumed:         consumed,
				ExpectedAccuracy: alloc.ExpectedAccuracy(cfg),
				ActiveTime:       alloc.ActiveTime(),
				Objective:        alloc.Objective(cfg),
				Region:           core.Classify(cfg, cl.Controller.LastBudget()),
			},
			Battery: cl.Controller.Battery(),
		}
		if cl.Models != nil {
			o.RealizedAccuracy = cl.realize(alloc, rng)
		}
		out = append(out, o)
	}
	return out, nil
}

// realize classifies sampled live windows under each active design point
// and returns the usage-weighted realized accuracy for the hour.
func (cl *ClosedLoop) realize(alloc core.Allocation, rng *rand.Rand) float64 {
	cfg := cl.Controller.Config()
	var weighted float64
	for i, t := range alloc.Active {
		if t <= 0 || cl.Models[i] == nil {
			continue
		}
		correct, total := 0, 0
		for k := 0; k < cl.WindowsPerHour; k++ {
			u := cl.Users[rng.Intn(len(cl.Users))]
			act := synth.Activities()[rng.Intn(synth.NumActivities)]
			w := synth.Generate(u, act, rng)
			pred, err := cl.Models[i].Classify(w)
			if err != nil {
				continue
			}
			total++
			if pred == act {
				correct++
			}
		}
		if total > 0 {
			weighted += (t / cfg.Period) * float64(correct) / float64(total)
		}
	}
	return weighted
}

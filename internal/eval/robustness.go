package eval

import (
	"fmt"
	"math/rand"

	"repro/internal/har"
	"repro/internal/synth"
)

// RobustnessCell is the accuracy of one design point under one fault.
type RobustnessCell struct {
	DP          string
	Fault       synth.Fault
	AccuracyPct float64
}

// RobustnessResult measures how the design points degrade under injected
// sensor faults, and whether the accuracy ordering REAP's Pareto set
// relies on survives. A stuck accelerometer axis should hurt the
// accel-heavy DP1 more than the stretch-only DP5; a detached stretch band
// should invert that.
type RobustnessResult struct {
	// CleanPct is the fault-free accuracy per design point.
	CleanPct map[string]float64
	Cells    []RobustnessCell
}

// Robustness evaluates the five published design points, characterized
// on ds, against every fault on ds's test split (each test window
// corrupted once).
func Robustness(ds *synth.Dataset, five []har.Characterized, seed int64) (*RobustnessResult, error) {
	res := &RobustnessResult{CleanPct: make(map[string]float64)}
	for _, p := range five {
		res.CleanPct[p.Spec.Name] = 100 * p.Accuracy
	}
	for _, f := range synth.Faults() {
		for _, p := range five {
			rng := rand.New(rand.NewSource(seed + int64(f)*1000))
			correct, total := 0, 0
			for _, i := range ds.Test {
				w, err := synth.Corrupt(ds.Windows[i], f, rng)
				if err != nil {
					return nil, err
				}
				pred, err := p.Model.Classify(w)
				if err != nil {
					return nil, err
				}
				total++
				if pred == w.Activity {
					correct++
				}
			}
			res.Cells = append(res.Cells, RobustnessCell{
				DP:          p.Spec.Name,
				Fault:       f,
				AccuracyPct: 100 * float64(correct) / float64(total),
			})
		}
	}
	return res, nil
}

// Accuracy returns the cell for (dp, fault).
func (r *RobustnessResult) Accuracy(dp string, f synth.Fault) (float64, bool) {
	for _, c := range r.Cells {
		if c.DP == dp && c.Fault == f {
			return c.AccuracyPct, true
		}
	}
	return 0, false
}

// Render prints the fault grid.
func (r *RobustnessResult) Render() string {
	t := &table{header: []string{"DP", "clean%"}}
	for _, f := range synth.Faults() {
		t.header = append(t.header, f.String()+"%")
	}
	for _, dp := range []string{"DP1", "DP2", "DP3", "DP4", "DP5"} {
		row := []string{dp, f1(r.CleanPct[dp])}
		for _, f := range synth.Faults() {
			if v, ok := r.Accuracy(dp, f); ok {
				row = append(row, f1(v))
			} else {
				row = append(row, "-")
			}
		}
		t.add(row...)
	}
	return "Robustness: accuracy under injected sensor faults (every test window corrupted)\n" +
		fmt.Sprintf("%s", t)
}

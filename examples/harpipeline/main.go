// harpipeline runs the full on-device stack the paper prototypes: it
// builds a synthetic user-study corpus, trains the five Pareto design
// points (sensing → features → NN classifier), prices them with the
// component energy model, and then classifies a live stream of activity
// windows under the design point REAP selects for the current budget.
package main

import (
	"context"
	"fmt"
	"math/rand"

	"repro"
	"repro/internal/har"
	"repro/internal/synth"
)

func main() {
	// A compact corpus keeps the example fast; use DefaultCorpusConfig
	// for the paper-scale 14-user / 3553-window study.
	ds, err := synth.NewDataset(synth.CorpusConfig{NumUsers: 8, TotalWindows: 1600, Seed: 2019})
	if err != nil {
		panic(err)
	}
	fmt.Printf("corpus: %d windows, %d users\n", len(ds.Windows), len(ds.Users))

	points, err := har.Characterize(ds, har.PaperFive())
	if err != nil {
		panic(err)
	}
	fmt.Println("\ncharacterized design points (trained + priced):")
	for _, p := range points {
		fmt.Printf("  %-4s acc %.1f%%  %.2f mJ/activity  %.2f mW\n",
			p.Spec.Name, 100*p.Accuracy, 1e3*p.EnergyPerActivity(), 1e3*p.Power())
	}

	// Assemble the optimizer configuration from the simulated
	// characterization (not the paper's numbers) and plan an hour.
	cfg := har.CoreConfig(points, 1)
	budget := 5.0
	alloc, err := reap.Solve(context.Background(), cfg, budget)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nhour plan at %.1f J: %v\n", budget, alloc)

	// Execute a slice of the hour: classify live windows under each
	// scheduled design point.
	rng := rand.New(rand.NewSource(7))
	fmt.Println("\nlive classification under the scheduled design points:")
	for i, tSec := range alloc.Active {
		if tSec <= 0 {
			continue
		}
		model := points[i].Model
		correct, total := 0, 40
		for k := 0; k < total; k++ {
			u := ds.Users[rng.Intn(len(ds.Users))]
			truth := synth.Activities()[rng.Intn(synth.NumActivities)]
			w := synth.Generate(u, truth, rng)
			pred, err := model.Classify(w)
			if err != nil {
				panic(err)
			}
			if pred == truth {
				correct++
			}
		}
		fmt.Printf("  %-4s scheduled %4.0f s: %d/%d live windows correct (%.0f%%)\n",
			points[i].Spec.Name, tSec, correct, total, 100*float64(correct)/float64(total))
	}
}

// The scenario example demonstrates the sim package: it loads two
// worlds from the embedded scenario corpus, runs the starved-winter
// brownout twice to show determinism (same seed, byte-identical trace),
// then contrasts it with the correlated lockstep regime where sixteen
// identical devices solve the same budget every hour.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math"

	"repro/sim"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()
	corpus, err := sim.Corpus()
	if err != nil {
		log.Fatal(err)
	}

	sc, err := corpus.Lookup("brownout")
	if err != nil {
		log.Fatal(err)
	}
	first, err := sim.Run(ctx, sc)
	if err != nil {
		log.Fatal(err)
	}
	second, err := sim.Run(ctx, sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== %s: %s\n%s\n\n", sc.Name, sc.Description, first.Summary)
	fmt.Printf("determinism: run twice with seed %d -> traces identical: %v (%d bytes)\n\n",
		sc.Seed, bytes.Equal(first.Trace.Bytes(), second.Trace.Bytes()), len(first.Trace.Bytes()))

	ls, err := corpus.Lookup("lockstep")
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run(ctx, ls)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== %s: %s\n%s\n", ls.Name, ls.Description, res.Summary)
	// Identical devices under identical skies with exact execution never
	// drift apart: every hour, every device hands the LP the same budget.
	tr := res.Trace
	spread := 0.0
	for step := 0; step < tr.Steps; step++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for dev := 0; dev < tr.Devices; dev++ {
			b := tr.At(step, dev).SolveBudgetJ
			lo, hi = math.Min(lo, b), math.Max(hi, b)
		}
		spread = math.Max(spread, hi-lo)
	}
	fmt.Printf("\ncorrelated budgets: %d devices over %d hours, largest per-hour LP budget spread %g J\n",
		tr.Devices, tr.Steps, spread)
}

// Command reap solves one activity period's allocation from the command
// line: the on-device computation of Algorithm 1, exposed for inspection.
//
// Usage:
//
//	reap -budget 5.0 [-alpha 1] [-period 3600] [-poff 5e-5] [-dps file.json]
//
// The design points default to the paper's Table 2; -dps accepts a JSON
// array of {"name": ..., "accuracy": ..., "power": ...} objects (power in
// watts). The allocation comes from reap.Solve, the compiled plan.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"repro"
)

type jsonDP struct {
	Name     string  `json:"name"`
	Accuracy float64 `json:"accuracy"`
	Power    float64 `json:"power"`
}

func main() {
	log.SetFlags(0)
	budget := flag.Float64("budget", 5.0, "energy budget for the period, joules")
	alpha := flag.Float64("alpha", 1.0, "accuracy emphasis exponent")
	period := flag.Float64("period", reap.DefaultPeriod, "activity period, seconds")
	poff := flag.Float64("poff", reap.DefaultPOff, "off-state power, watts")
	dpsFile := flag.String("dps", "", "JSON file with custom design points")
	flag.Parse()

	opts := []reap.Option{
		reap.WithPeriod(*period),
		reap.WithOffPower(*poff),
		reap.WithAlpha(*alpha),
	}
	if *dpsFile != "" {
		data, err := os.ReadFile(*dpsFile)
		if err != nil {
			log.Fatal(err)
		}
		var raw []jsonDP
		if err := json.Unmarshal(data, &raw); err != nil {
			log.Fatalf("parsing %s: %v", *dpsFile, err)
		}
		dps := make([]reap.DesignPoint, len(raw))
		for i, d := range raw {
			dps[i] = reap.DesignPoint{Name: d.Name, Accuracy: d.Accuracy, Power: d.Power}
		}
		opts = append(opts, reap.WithDesignPoints(dps...))
	}

	cfg, err := reap.NewConfig(opts...)
	if err != nil {
		log.Fatal(err)
	}
	alloc, err := reap.Solve(context.Background(), cfg, *budget)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("budget      %.3f J (%s)\n", *budget, reap.Classify(cfg, *budget))
	fmt.Printf("objective   J(t) = %.4f (alpha %g)\n", alloc.Objective(cfg), cfg.Alpha)
	fmt.Printf("expected accuracy %.2f%%\n", 100*alloc.ExpectedAccuracy(cfg))
	fmt.Printf("active time %.0f s of %.0f (%.1f%%)\n",
		alloc.ActiveTime(), cfg.Period, 100*alloc.ActiveTime()/cfg.Period)
	fmt.Printf("energy used %.3f J\n", alloc.Energy(cfg))
	fmt.Println("schedule:")
	for i, t := range alloc.Active {
		if t > 0 {
			fmt.Printf("  %-6s %7.0f s  (%5.1f%%)  acc %.0f%%  %.2f mW\n",
				cfg.DPs[i].Name, t, 100*t/cfg.Period,
				100*cfg.DPs[i].Accuracy, 1e3*cfg.DPs[i].Power)
		}
	}
	if alloc.Off > 0 {
		fmt.Printf("  %-6s %7.0f s  (%5.1f%%)\n", "off", alloc.Off, 100*alloc.Off/cfg.Period)
	}
	if alloc.Dead > 0 {
		fmt.Printf("  %-6s %7.0f s  (%5.1f%%)  budget below idle floor\n",
			"dead", alloc.Dead, 100*alloc.Dead/cfg.Period)
	}
}

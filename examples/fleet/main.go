// fleet demonstrates the batch/fleet layer: one process coordinating a
// thousand harvesting devices, each with its own controller session,
// stepped concurrently every activity period — the shape of a cloud
// service planning schedules for a deployed population. A second part
// shows the stateless SolveBatch path on a budget grid.
package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro"
)

func main() {
	ctx := context.Background()
	const devices = 1000

	fleet, err := reap.NewFleet(devices,
		reap.WithBattery(20, 100),
		reap.WithSolver(reap.SolverEnumerate),
	)
	if err != nil {
		panic(err)
	}

	// A stylized day: every device sees the same diurnal harvest shape
	// scaled by its site quality (panel orientation, shading, latitude).
	fmt.Printf("fleet of %d devices, 24 simulated hours\n\n", devices)
	var totalAcc float64
	start := time.Now()
	for hour := 0; hour < 24; hour++ {
		sun := math.Max(0, math.Sin(math.Pi*float64(hour-6)/12)) // daylight 06:00-18:00
		budgets := make([]float64, devices)
		for d := range budgets {
			site := 0.5 + float64(d%100)/100.0 // site quality 0.5x .. 1.5x
			budgets[d] = 8.0 * sun * site
		}
		allocs, err := fleet.StepAll(ctx, budgets)
		if err != nil {
			panic(err)
		}
		consumed := make([]float64, devices)
		var hourAcc float64
		for d, alloc := range allocs {
			dev, err := fleet.Device(d)
			if err != nil {
				panic(err)
			}
			cfg := dev.Config()
			consumed[d] = alloc.Energy(cfg) // devices execute the plan faithfully here
			hourAcc += alloc.ExpectedAccuracy(cfg)
		}
		if err := fleet.ReportAll(consumed); err != nil {
			panic(err)
		}
		totalAcc += hourAcc
		if hour%6 == 0 {
			fmt.Printf("  %02d:00  mean budget %5.2f J  fleet mean E{a} %5.1f%%\n",
				hour, mean(budgets), 100*hourAcc/devices)
		}
	}
	fmt.Printf("\n24 fleet-hours (%d steps) in %v; day-mean E{a} %.1f%%\n",
		24*devices, time.Since(start).Round(time.Millisecond), 100*totalAcc/(24*devices))

	// Stateless batch: a what-if sweep over budgets on the paper's
	// configuration (a zero Config), every request solved on the plan.
	reqs := make([]reap.Request, 20)
	for i := range reqs {
		reqs[i] = reap.Request{Budget: 0.5 + 0.5*float64(i)}
	}
	cfg, err := reap.NewConfig() // the defaults a zero Config stands for
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nSolveBatch: %d budget points\n", len(reqs))
	for i, res := range reap.SolveBatch(ctx, reqs) {
		if res.Err != nil {
			panic(fmt.Sprintf("batch solve at %.1f J failed: %v", reqs[i].Budget, res.Err))
		}
		if i%5 == 4 {
			fmt.Printf("  %4.1f J  E{a} %5.1f%%  active %5.1f%% of the hour\n", reqs[i].Budget,
				100*res.Allocation.ExpectedAccuracy(cfg), 100*res.Allocation.ActiveTime()/cfg.Period)
		}
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

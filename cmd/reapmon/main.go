// Command reapmon simulates a live REAP device and streams its hourly
// decisions: harvest, budget, chosen design-point mix, battery level,
// expected accuracy and the marginal value of energy (the LP's shadow
// price). It is the observability surface a developer would attach to a
// real deployment.
//
// Usage:
//
//	reapmon [-days 3] [-month 9] [-year 2015] [-alpha 1] [-battery 20]
//	        [-capacity 100] [-noise 0.03] [-solver plan] [-lookahead]
//
// -solver picks the hourly optimizer backend (default plan, the compiled
// parametric solver). The -lookahead planner bypasses the hourly solver
// entirely, so -solver does not apply there.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/forecast"
	"repro/internal/solar"
)

func main() {
	log.SetFlags(0)
	days := flag.Int("days", 3, "days to simulate")
	month := flag.Int("month", 9, "month of the solar trace")
	year := flag.Int("year", 2015, "year (weather seed)")
	alpha := flag.Float64("alpha", 1, "accuracy emphasis")
	battery := flag.Float64("battery", 20, "initial battery charge, J")
	capacity := flag.Float64("capacity", 100, "battery capacity, J")
	noise := flag.Float64("noise", 0.03, "execution noise (relative std)")
	solverName := flag.String("solver", reap.DefaultSolver,
		"optimizer backend: "+strings.Join(reap.Solvers(), ", "))
	lookahead := flag.Bool("lookahead", false, "use the 24h receding-horizon planner instead of myopic REAP")
	flag.Parse()

	tr, err := solar.MonthlyTrace(*month, *year, solar.DefaultCell())
	if err != nil {
		log.Fatal(err)
	}
	hours := *days * 24
	if hours > len(tr.Hours) {
		hours = len(tr.Hours)
	}
	harvest := tr.Hours[:hours]

	cfg, err := reap.NewConfig(reap.WithAlpha(*alpha))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-5s %-9s %-9s %-22s %-9s %-7s %-10s\n",
		"hour", "harvest", "budget", "schedule", "E{a}%", "batt", "dJ/dE(1/J)")

	if *lookahead {
		ew, err := forecast.NewEWMA(0.5)
		if err != nil {
			log.Fatal(err)
		}
		rh := &device.RecedingHorizon{
			Cfg: cfg, CapacityJ: *capacity, BatteryJ: *battery,
			Horizon: 24, Forecast: ew,
		}
		res, err := rh.Run(harvest)
		if err != nil {
			log.Fatal(err)
		}
		for i, h := range res.Hours {
			printHour(cfg, i, harvest[i], h.Budget, h.Alloc, -1)
		}
		fmt.Printf("\nmean E{a} %.3f over %d hours (receding-horizon planner)\n",
			res.MeanExpectedAccuracy(), len(res.Hours))
		return
	}

	ctl, err := reap.New(reap.WithConfig(cfg), reap.WithBattery(*battery, *capacity),
		reap.WithSolver(*solverName))
	if err != nil {
		log.Fatal(err)
	}
	cl := &device.ClosedLoop{Controller: ctl, ExecutionNoise: *noise, Seed: 1}
	outs, err := cl.Run(harvest)
	if err != nil {
		log.Fatal(err)
	}
	var sum float64
	for i, o := range outs {
		printHour(cfg, i, harvest[i], o.Budget, o.Alloc, o.Battery)
		sum += o.ExpectedAccuracy
	}
	fmt.Printf("\nmean E{a} %.3f over %d hours, final battery %.1f J\n",
		sum/float64(len(outs)), len(outs), ctl.Battery())
}

func printHour(cfg core.Config, i int, harvest, budget float64, alloc core.Allocation, battery float64) {
	price, err := core.ShadowPrice(cfg, budget)
	priceStr := "-"
	if err == nil {
		priceStr = fmt.Sprintf("%.5f", price)
	}
	battStr := "-"
	if battery >= 0 {
		battStr = fmt.Sprintf("%.1f", battery)
	}
	fmt.Printf("%02d:00 %-9.2f %-9.2f %-22s %-9.1f %-7s %-10s\n",
		i%24, harvest, budget, alloc.String(),
		100*alloc.ExpectedAccuracy(cfg), battStr, priceStr)
}

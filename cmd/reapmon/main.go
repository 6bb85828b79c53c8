// Command reapmon simulates a live REAP device and streams its hourly
// decisions: harvest, budget, chosen design-point mix, battery level,
// expected accuracy and the marginal value of energy (dJ/dE, the slope
// of the compiled plan's objective at the budget). It is the
// observability surface a developer would attach to a real deployment.
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
	"io"
	"log"
	"os"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/forecast"
	"repro/internal/solar"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run parses the command-line arguments args and streams the simulated
// hours to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	days := fs.Int("days", 3, "days to simulate")
	month := fs.Int("month", 9, "month of the solar trace")
	year := fs.Int("year", 2015, "year (weather seed)")
	alpha := fs.Float64("alpha", 1, "accuracy emphasis")
	battery := fs.Float64("battery", 20, "initial battery charge, J")
	capacity := fs.Float64("capacity", 100, "battery capacity, J")
	noise := fs.Float64("noise", 0.03, "execution noise (relative std)")
	solverName := fs.String("solver", reap.DefaultSolver,
		"optimizer backend: "+strings.Join(reap.Solvers(), ", "))
	lookahead := fs.Bool("lookahead", false, "use the 24h receding-horizon planner instead of myopic REAP")
	if err := fs.Parse(args); err != nil {
		return err
	}

	tr, err := solar.MonthlyTrace(*month, *year, solar.DefaultCell())
	if err != nil {
		return err
	}
	hours := *days * 24
	if hours > len(tr.Hours) {
		hours = len(tr.Hours)
	}
	harvest := tr.Hours[:hours]

	cfg, err := reap.NewConfig(reap.WithAlpha(*alpha))
	if err != nil {
		return err
	}
	plan, err := core.NewPlan(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%-5s %-9s %-9s %-22s %-9s %-7s %-10s\n",
		"hour", "harvest", "budget", "schedule", "E{a}%", "batt", "dJ/dE(1/J)")

	if *lookahead {
		ew, err := forecast.NewEWMA(0.5)
		if err != nil {
			return err
		}
		rh := &device.RecedingHorizon{
			Cfg: cfg, CapacityJ: *capacity, BatteryJ: *battery,
			Horizon: 24, Forecast: ew,
		}
		res, err := rh.Run(harvest)
		if err != nil {
			return err
		}
		for i, h := range res.Hours {
			printHour(w, cfg, plan, i, harvest[i], h.Budget, h.Alloc, h.Battery)
		}
		_, err = fmt.Fprintf(w, "\nmean E{a} %.3f over %d hours (receding-horizon planner)\n",
			res.MeanExpectedAccuracy(), len(res.Hours))
		return err
	}

	ctl, err := reap.New(reap.WithConfig(cfg), reap.WithBattery(*battery, *capacity),
		reap.WithSolver(*solverName))
	if err != nil {
		return err
	}
	res, err := device.Run(ctl, harvest, *noise, 1)
	if err != nil {
		return err
	}
	for i, h := range res.Hours {
		printHour(w, cfg, plan, i, harvest[i], h.Budget, h.Alloc, h.Battery)
	}
	_, err = fmt.Fprintf(w, "\nmean E{a} %.3f over %d hours, final battery %.1f J\n",
		res.MeanExpectedAccuracy(), len(res.Hours), ctl.Battery())
	return err
}

func printHour(w io.Writer, cfg core.Config, plan *core.Plan, i int, harvest, budget float64, alloc core.Allocation, battery float64) {
	price, err := plan.ShadowPrice(budget)
	priceStr := "-"
	if err == nil {
		priceStr = fmt.Sprintf("%.5f", price)
	}
	fmt.Fprintf(w, "%02d:00 %-9.2f %-9.2f %-22s %-9.1f %-7.1f %-10s\n",
		i%24, harvest, budget, alloc.String(),
		100*alloc.ExpectedAccuracy(cfg), battery, priceStr)
}

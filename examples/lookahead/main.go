// lookahead demonstrates the multi-hour planning extension: instead of
// optimizing each hour myopically against whatever the allocator hands it
// (the paper's REAP), the device plans a whole day jointly against a
// harvest forecast, banking midday surplus in the battery for the night.
// Compares greedy REAP, an EWMA-forecast receding-horizon planner, and a
// perfect-forecast oracle over a week of synthetic solar.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro"
	"repro/internal/device"
	"repro/internal/forecast"
	"repro/internal/solar"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run plans the week three ways and writes the comparison to w.
func run(w io.Writer) error {
	tr, err := solar.September2015()
	if err != nil {
		return err
	}
	week := tr.Hours[:168]
	cfg, err := reap.NewConfig()
	if err != nil {
		return err
	}

	// Myopic greedy: each hour spends what it harvests.
	greedy, err := device.Replay(cfg, week, nil)
	if err != nil {
		return err
	}

	// Deployable: diurnal EWMA forecast + 24 h receding horizon.
	ew, err := forecast.NewEWMA(0.5)
	if err != nil {
		return err
	}
	rhEWMA := &device.RecedingHorizon{Cfg: cfg, CapacityJ: 200, Forecast: ew}
	ewmaRun, err := rhEWMA.Run(week)
	if err != nil {
		return err
	}

	// Upper bound: perfect forecast.
	rhOracle := &device.RecedingHorizon{
		Cfg: cfg, CapacityJ: 200,
		Forecast: &device.OracleForecaster{Trace: week},
	}
	oracleRun, err := rhOracle.Run(week)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "one week of synthetic September solar, alpha = 1")
	fmt.Fprintf(w, "%-28s %-12s %-10s\n", "planner", "mean E{a}", "active (h)")
	for _, r := range []struct {
		name string
		run  *device.RunResult
	}{
		{"myopic greedy (paper)", greedy},
		{"EWMA lookahead", ewmaRun},
		{"oracle lookahead", oracleRun},
	} {
		fmt.Fprintf(w, "%-28s %-12.3f %-10.1f\n",
			r.name, r.run.MeanExpectedAccuracy(), r.run.TotalActiveTime()/3600)
	}

	// Show one day hour by hour: where the night activity comes from.
	fmt.Fprintln(w, "\nday 3, hour by hour (expected accuracy %):")
	fmt.Fprintf(w, "%-6s %-10s %-10s %-10s %-10s\n", "hour", "harvest", "greedy", "ewma", "oracle")
	for h := 48; h < 72; h++ {
		fmt.Fprintf(w, "%-6d %-10.2f %-10.1f %-10.1f %-10.1f\n",
			h-48, week[h],
			100*greedy.Hours[h].ExpectedAccuracy,
			100*ewmaRun.Hours[h].ExpectedAccuracy,
			100*oracleRun.Hours[h].ExpectedAccuracy)
	}
	fmt.Fprintln(w, "\nThe lookahead planners stay on after sunset by spending banked energy;")
	_, err = fmt.Fprintln(w, "greedy REAP goes dark the moment harvest stops.")
	return err
}

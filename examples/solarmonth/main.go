// solarmonth reproduces the Section 5.4 case study: a wearable harvesting
// solar energy in Golden, CO for a month, re-planning every hour with the
// REAP controller (battery + energy-accounting feedback), compared against
// the static design points.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro"
	"repro/internal/device"
	"repro/internal/solar"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run simulates the month and writes the comparison to w.
func run(w io.Writer) error {
	tr, err := solar.September2015()
	if err != nil {
		return err
	}
	mean, std := tr.Stats()
	fmt.Fprintf(w, "synthetic September 2015 at Golden, CO: %.0f J harvested, peak %.1f J/h, daylight mean %.1f±%.1f J/h\n",
		tr.Total(), tr.Peak(), mean, std)

	// Smooth the harvest through a small battery, as the paper's energy
	// allocation layer does.
	budgets := solar.DefaultBatteryAllocator().Budgets(tr.Hours)

	cfg, err := reap.NewConfig()
	if err != nil {
		return err
	}
	reapRun, err := device.Replay(cfg, budgets, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%-6s mean E{a} %.3f   active %5.1f h   consumed %6.0f J\n",
		"REAP", reapRun.MeanExpectedAccuracy(), reapRun.TotalActiveTime()/3600, reapRun.TotalConsumed())
	for i := range cfg.DPs {
		run, err := device.Replay(cfg, budgets, device.Static(i))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-6s mean E{a} %.3f   active %5.1f h   consumed %6.0f J\n",
			cfg.DPs[i].Name, run.MeanExpectedAccuracy(), run.TotalActiveTime()/3600, run.TotalConsumed())
	}

	// Closed loop with the runtime controller: battery state + feedback.
	ctl, err := reap.New(reap.WithConfig(cfg), reap.WithBattery(20, 100))
	if err != nil {
		return err
	}
	month, err := device.Run(ctl, tr.Hours, 0.03, 1)
	if err != nil {
		return err
	}
	regionHours := map[reap.Region]int{}
	for _, h := range month.Hours {
		regionHours[h.Region]++
	}
	fmt.Fprintf(w, "\nclosed-loop month with controller (3%% execution noise):\n")
	for _, r := range []reap.Region{reap.RegionDead, reap.Region1, reap.Region2, reap.Region3} {
		fmt.Fprintf(w, "  %-8s %3d hours\n", r, regionHours[r])
	}
	_, err = fmt.Fprintf(w, "  final battery %.1f J of 100 J\n", ctl.Battery())
	return err
}

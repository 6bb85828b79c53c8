package sim

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro"
)

// startBatteries builds a fleet as Run does for the defaulted scenario
// and returns each device's battery before the first step.
func startBatteries(t *testing.T, sc Scenario) []float64 {
	t.Helper()
	opts := []reap.Option{reap.WithAlpha(sc.Alpha), reap.WithBattery(sc.BatteryJ, sc.CapacityJ)}
	if override := sc.perDeviceOverride(); override != nil {
		opts = append(opts, reap.WithDeviceOverride(override))
	}
	fleet, err := reap.NewFleet(sc.Devices, opts...)
	if err != nil {
		t.Fatal(err)
	}
	starts := make([]float64, sc.Devices)
	for i := range starts {
		dev, err := fleet.Device(i)
		if err != nil {
			t.Fatal(err)
		}
		starts[i] = dev.Battery()
	}
	return starts
}

// Run selects its percentiles in place. For every corpus world, the
// utility and neutrality distributions it returns must equal the sort
// oracle's over the samples its trace carries: each record's utility,
// and each record's neutrality residual against the battery its device
// held before the step.
func TestRunDistributionsMatchSortOracle(t *testing.T) {
	for _, sc := range corpusScenarios(t) {
		t.Run(sc.Name, func(t *testing.T) {
			res, err := Run(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			battery := startBatteries(t, res.Scenario)
			var start float64
			for _, b := range battery {
				start += b
			}
			if start != res.Summary.BatteryStartJ {
				t.Fatalf("start batteries sum to %v, summary says %v", start, res.Summary.BatteryStartJ)
			}
			var utilities, residuals []float64
			for i := range res.Trace.Records {
				r := &res.Trace.Records[i]
				utilities = append(utilities, r.Utility)
				delta := r.BatteryJ - battery[r.Device]
				battery[r.Device] = r.BatteryJ
				denom := math.Max(math.Max(r.BudgetJ, r.ConsumedJ), 1e-9)
				residuals = append(residuals, math.Abs(r.BudgetJ-r.ConsumedJ-delta)/denom)
			}
			if got, want := res.Summary.UtilityDist, oracleDistribution(utilities); !sameDistribution(got, want) {
				t.Errorf("utility: Run %+v, sort oracle %+v", got, want)
			}
			if got, want := res.Summary.NeutralityErrDist, oracleDistribution(residuals); !sameDistribution(got, want) {
				t.Errorf("neutrality: Run %+v, sort oracle %+v", got, want)
			}
		})
	}
}

// Every record's Active is carved from one slab. Each must be capped at
// its own length, so that appending to one record's schedule moves it
// to a new array instead of writing into the next record's.
func TestRecordSchedulesDoNotShareTails(t *testing.T) {
	res, err := Run(context.Background(), mustScenario(t, "fleet-churn"))
	if err != nil {
		t.Fatal(err)
	}
	recs := res.Trace.Records
	checked := 0
	for i := 0; i+1 < len(recs); i++ {
		cur, next := recs[i].Active, recs[i+1].Active
		if len(cur) == 0 || len(next) == 0 {
			continue // an offline device records no schedule
		}
		want := slices.Clone(next)
		grown := append(cur, -1)
		if !slices.Equal(next, want) {
			t.Fatalf("appending to record %d's Active changed record %d's from %v to %v", i, i+1, want, next)
		}
		if &grown[0] == &cur[0] {
			t.Fatalf("record %d's Active grew in place (cap %d, len %d)", i, cap(cur), len(cur))
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no adjacent online records to check")
	}
}

package sim

import (
	"sort"

	"repro"
)

// The scenario library: named, seeded closed-loop situations covering
// the regimes the fleet layer must survive. Each constructor returns a
// fresh value, so callers can tweak fields (more devices, a different
// seed) without affecting the library.

// ClearMonth is a sunny June: generous harvest, moderate batteries, the
// energy-surplus regime where overflow losses dominate the neutrality
// residual and devices saturate their best design points at midday.
func ClearMonth() Scenario {
	return Scenario{
		Name:         "clear-month",
		Description:  "sunny June surplus: saturation, battery overflow",
		Devices:      4,
		Days:         3,
		Seed:         1,
		Month:        6,
		Year:         2016,
		HarvestScale: 1.8,
		DeviceJitter: 0.05,
		BatteryJ:     25,
		CapacityJ:    120,
		Noise:        0.03,
	}
}

// CloudyBursts is a volatile December planned on EWMA forecasts: weak,
// bursty harvest, prediction error absorbed by the accounting loop, the
// enumerate backend as the solver.
func CloudyBursts() Scenario {
	return Scenario{
		Name:         "cloudy-bursts",
		Description:  "volatile December on EWMA forecast budgets",
		Devices:      4,
		Days:         3,
		Seed:         2,
		Month:        12,
		Year:         2017,
		HarvestScale: 0.7,
		DeviceJitter: 0.12,
		BatteryJ:     10,
		CapacityJ:    60,
		Solver:       reap.SolverEnumerate,
		Forecast:     true,
		Noise:        0.06,
		FaultRate:    0.02,
	}
}

// Brownout is a starved February with tiny batteries and frequent
// faults: budgets routinely fall below the off-state floor, exercising
// the dead region and recovery from it.
func Brownout() Scenario {
	return Scenario{
		Name:         "brownout",
		Description:  "starved February: dead regions, fault storms",
		Devices:      3,
		Days:         3,
		Seed:         3,
		Month:        2,
		Year:         2018,
		HarvestScale: 0.3,
		DeviceJitter: 0.08,
		BatteryJ:     3,
		CapacityJ:    12,
		Noise:        0.08,
		FaultRate:    0.12,
	}
}

// MixedFleet is a heterogeneous September fleet: a third of the devices
// emphasize active time (α = 0.5), a third emphasize accuracy with
// bigger batteries (α = 2), and a third run the enumerate backend. The
// populations are declarative, so the scenario round-trips through its
// config-file form unchanged.
func MixedFleet() Scenario {
	return Scenario{
		Name:         "mixed-fleet",
		Description:  "heterogeneous alphas, batteries and backends in one fleet",
		Devices:      6,
		Days:         3,
		Seed:         4,
		Month:        9,
		Year:         2015,
		DeviceJitter: 0.10,
		BatteryJ:     15,
		CapacityJ:    80,
		Noise:        0.04,
		FaultRate:    0.03,
		Populations: []Population{
			{Modulus: 3, Residue: 0, Alpha: 0.5},
			{Modulus: 3, Residue: 1, Alpha: 2, BatteryJ: 30, CapacityJ: 150},
			{Modulus: 3, Residue: 2, Solver: reap.SolverEnumerate},
		},
	}
}

// Lockstep is the fully correlated regime: sixteen identical devices
// under identical skies with exact (flat) execution, stepped on an
// explicit four-worker pool, so every device sees the same budget every
// hour and the fleet moves in lockstep.
func Lockstep() Scenario {
	return Scenario{
		Name:            "lockstep",
		Description:     "16 identical devices, correlated budgets, 4 workers",
		Devices:         16,
		Days:            2,
		Seed:            5,
		Month:           9,
		Year:            2015,
		HarvestScale:    1.2,
		BatteryJ:        20,
		CapacityJ:       100,
		Workers:         4,
		FlatConsumption: true,
	}
}

// Library returns the legacy constructor-defined scenario library,
// ordered by name. The embedded corpus (Corpus) is a superset: these
// five plus the config-only scenarios; the corpus config files for
// these five are pinned byte-for-byte against the constructors.
func Library() []Scenario {
	lib := []Scenario{ClearMonth(), CloudyBursts(), Brownout(), MixedFleet(), Lockstep()}
	sort.Slice(lib, func(i, j int) bool { return lib[i].Name < lib[j].Name })
	return lib
}

// Lookup returns the corpus scenario with the given name — the five
// legacy library scenarios plus every config-defined one. Unknown names
// return an error wrapping ErrUnknownScenario.
func Lookup(name string) (Scenario, error) {
	c, err := Corpus()
	if err != nil {
		return Scenario{}, err
	}
	return c.Lookup(name)
}

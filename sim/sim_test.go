package sim

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/synth"
)

// corpusScenarios returns every scenario in the embedded corpus,
// failing the test if the corpus does not load.
func corpusScenarios(t *testing.T) []Scenario {
	t.Helper()
	c, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	return c.Scenarios()
}

// Two runs of the same scenario must produce byte-identical traces —
// the core determinism contract, independent of the checked-in goldens.
func TestSameSeedByteIdenticalTrace(t *testing.T) {
	for _, sc := range corpusScenarios(t) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			a, err := Run(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Trace.Bytes(), b.Trace.Bytes()) {
				t.Fatalf("same seed produced different traces (%d vs %d bytes)",
					len(a.Trace.Bytes()), len(b.Trace.Bytes()))
			}
		})
	}
}

// TestTraceIndependentOfWorkers: the pool runs up to GOMAXPROCS
// workers, one per 256-device chunk at most, so the corpus worlds, at
// 16 devices or fewer, never start one. cloudy-bursts at 1,024 devices
// spans four chunks, and a run at GOMAXPROCS 4 must write the trace of
// a run at GOMAXPROCS 1 byte for byte.
func TestTraceIndependentOfWorkers(t *testing.T) {
	sc := mustScenario(t, "cloudy-bursts")
	sc.Devices = 1024
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var traces [2][]byte
	for i, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		res, err := Run(context.Background(), sc)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		traces[i] = res.Trace.Bytes()
	}
	if !bytes.Equal(traces[0], traces[1]) {
		t.Fatalf("GOMAXPROCS 4 wrote a different trace than 1 (%d vs %d bytes)", len(traces[1]), len(traces[0]))
	}
}

func TestDifferentSeedDifferentTrace(t *testing.T) {
	sc := mustScenario(t, "brownout")
	a, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed++
	b, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Trace.Bytes(), b.Trace.Bytes()) {
		t.Fatal("different seeds produced identical traces")
	}
}

// The trace must be internally consistent: canonical ordering, time
// conservation, energy feasibility, batteries within capacity. Runs
// over the whole corpus, so churned, stormed, regional and aging
// scenarios are all held to the same invariants.
func TestTraceInvariants(t *testing.T) {
	for _, sc := range corpusScenarios(t) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res, err := Run(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			tr := res.Trace
			if got := len(tr.Records); got != tr.Steps*tr.Devices {
				t.Fatalf("%d records for %d steps x %d devices", got, tr.Steps, tr.Devices)
			}
			for step := 0; step < tr.Steps; step++ {
				for dev := 0; dev < tr.Devices; dev++ {
					r := tr.At(step, dev)
					if r.Step != step || r.Device != dev {
						t.Fatalf("record at (%d,%d) holds (%d,%d): ordering broken",
							step, dev, r.Step, r.Device)
					}
					cfg := res.Configs[dev]
					var active float64
					for _, a := range r.Active {
						if a < -1e-9 {
							t.Fatalf("step %d dev %d: negative active time %v", step, dev, a)
						}
						active += a
					}
					if total := active + r.OffS + r.DeadS; math.Abs(total-cfg.Period) > 1e-6 {
						t.Fatalf("step %d dev %d: allocation totals %v s, period is %v s",
							step, dev, total, cfg.Period)
					}
					if r.BatteryJ < -1e-9 || r.BatteryJ > capacityOf(res, dev)+1e-9 {
						t.Fatalf("step %d dev %d: battery %v outside [0, capacity]", step, dev, r.BatteryJ)
					}
					if r.ConsumedJ < 0 {
						t.Fatalf("step %d dev %d: negative consumption %v", step, dev, r.ConsumedJ)
					}
				}
			}
		})
	}
}

// capacityOf resolves device dev's battery capacity from the scenario's
// declarative population overrides, mirroring perDeviceOverride's
// matching rule.
func capacityOf(res *Result, dev int) float64 {
	capacity := res.Scenario.CapacityJ
	for _, p := range res.Scenario.Populations {
		if p.Modulus > 0 && dev%p.Modulus != p.Residue {
			continue
		}
		if p.BatteryJ != 0 || p.CapacityJ != 0 {
			capacity = p.CapacityJ
		}
	}
	return capacity
}

// Forecast-driven budgets must decouple the budget from the actual
// harvest after the warm-up day, and stay within the predictor's range.
func TestForecastBudgetsDecouple(t *testing.T) {
	res, err := Run(context.Background(), mustScenario(t, "cloudy-bursts"))
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	warm, post := 0, 0
	var diverged bool
	for i := range tr.Records {
		r := &tr.Records[i]
		if r.Step < 24 {
			if r.BudgetJ != r.HarvestJ {
				t.Fatalf("step %d dev %d: warm-up budget %v != harvest %v",
					r.Step, r.Device, r.BudgetJ, r.HarvestJ)
			}
			warm++
			continue
		}
		post++
		if r.BudgetJ != r.HarvestJ {
			diverged = true
		}
		if r.BudgetJ < 0 {
			t.Fatalf("step %d dev %d: negative forecast budget %v", r.Step, r.Device, r.BudgetJ)
		}
	}
	if warm == 0 || post == 0 {
		t.Fatalf("degenerate horizon: %d warm-up, %d forecast records", warm, post)
	}
	if !diverged {
		t.Fatal("forecast budgets never diverged from actual harvest")
	}
}

// Fault injection must actually fire at the configured rate and degrade
// utility relative to accuracy.
func TestFaultInjection(t *testing.T) {
	res, err := Run(context.Background(), mustScenario(t, "brownout"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.FaultCount == 0 {
		t.Fatal("brownout scenario injected no faults at FaultRate=0.12")
	}
	for i := range res.Trace.Records {
		r := &res.Trace.Records[i]
		if r.Fault == "none" {
			if r.Utility != r.Accuracy {
				t.Fatalf("step %d dev %d: utility %v != accuracy %v without a fault",
					r.Step, r.Device, r.Utility, r.Accuracy)
			}
		} else if r.Accuracy > 0 && r.Utility >= r.Accuracy {
			t.Fatalf("step %d dev %d: fault %s did not degrade utility (%v >= %v)",
				r.Step, r.Device, r.Fault, r.Utility, r.Accuracy)
		}
	}
}

func TestScenarioValidation(t *testing.T) {
	cases := map[string]func(*Scenario){
		"no devices":        func(s *Scenario) { s.Devices = 0 },
		"bad month":         func(s *Scenario) { s.Month = 13 },
		"too many days":     func(s *Scenario) { s.Days = 40 },
		"neg noise":         func(s *Scenario) { s.Noise = -1 },
		"bad fault":         func(s *Scenario) { s.FaultRate = 2 },
		"bad jitter":        func(s *Scenario) { s.DeviceJitter = 1 },
		"neg scale":         func(s *Scenario) { s.HarvestScale = -2 },
		"neg months":        func(s *Scenario) { s.Months = -1 },
		"huge months":       func(s *Scenario) { s.Months = 37 },
		"neg aging":         func(s *Scenario) { s.AgingPerDay = -0.01 },
		"huge aging":        func(s *Scenario) { s.AgingPerDay = 0.2 },
		"bad residue":       func(s *Scenario) { s.Populations = []Population{{Modulus: 3, Residue: 3}} },
		"bad solver":        func(s *Scenario) { s.Solver = "no-such-backend" },
		"bad pop battery":   func(s *Scenario) { s.Populations = []Population{{BatteryJ: 10}} },
		"neg alpha":         func(s *Scenario) { s.Alpha = -1 },
		"residue no mod":    func(s *Scenario) { s.Populations = []Population{{Residue: 3}} },
		"battery over":      func(s *Scenario) { s.BatteryJ, s.CapacityJ = 50, 10 },
		"dup region":        func(s *Scenario) { s.Regions = []Region{{Name: "a"}, {Name: "a"}} },
		"neg region scale":  func(s *Scenario) { s.Regions = []Region{{Name: "a", HarvestScale: -1}} },
		"churn early":       func(s *Scenario) { s.Churn = []ChurnEvent{{Step: -1}} },
		"churn late":        func(s *Scenario) { s.Churn = []ChurnEvent{{Step: 72}} },
		"churn unordered":   func(s *Scenario) { s.Churn = []ChurnEvent{{Step: 10}, {Step: 5}} },
		"churn bad device":  func(s *Scenario) { s.Churn = []ChurnEvent{{Step: 1, Leave: []int{9}}} },
		"storm bad rate":    func(s *Scenario) { s.Storm = &Storm{StartRate: 2, DurationHours: 3} },
		"storm no duration": func(s *Scenario) { s.Storm = &Storm{StartRate: 0.1} },
		"storm bad faults":  func(s *Scenario) { s.Storm = &Storm{StartRate: 0.1, DurationHours: 3, FaultRate: -1} },
		"storm bad scale":   func(s *Scenario) { s.Storm = &Storm{StartRate: 0.1, DurationHours: 3, HarvestScale: -1} },
		"battery inf":       func(s *Scenario) { s.BatteryJ, s.CapacityJ = math.Inf(1), math.Inf(1) },
		"pop battery nan":   func(s *Scenario) { s.Populations = []Population{{BatteryJ: math.NaN(), CapacityJ: 10}} },
		"pop battery inf": func(s *Scenario) {
			s.Populations = []Population{{BatteryJ: math.Inf(1), CapacityJ: math.Inf(1)}}
		},
	}
	base := mustScenario(t, "clear-month")
	for name, mutate := range cases {
		sc := base
		mutate(&sc)
		if err := sc.withDefaults().Validate(); !errors.Is(err, ErrInvalidScenario) {
			t.Errorf("%s: Validate returned %v, want ErrInvalidScenario", name, err)
		}
		_, err := Run(context.Background(), sc)
		if err == nil {
			t.Errorf("%s: Run accepted an invalid scenario", name)
			continue
		}
		if !errors.Is(err, ErrInvalidScenario) {
			t.Errorf("%s: error does not wrap ErrInvalidScenario: %v", name, err)
		}
	}
	if _, err := Run(context.Background(), Scenario{}); !errors.Is(err, ErrInvalidScenario) {
		t.Errorf("zero scenario must fail with ErrInvalidScenario, got %v", err)
	}
	// Run accepts these, so Validate must too: reap.WithBattery allows a
	// charge up to 1e-9 J above the capacity.
	valid := map[string]func(*Scenario){
		"battery at tolerance":     func(s *Scenario) { s.BatteryJ, s.CapacityJ = 10+5e-10, 10 },
		"pop battery at tolerance": func(s *Scenario) { s.Populations = []Population{{BatteryJ: 10 + 5e-10, CapacityJ: 10}} },
	}
	for name, mutate := range valid {
		sc := base
		mutate(&sc)
		if err := sc.withDefaults().Validate(); err != nil {
			t.Errorf("%s: Validate returned %v, want nil", name, err)
		}
		if _, err := Run(context.Background(), sc); err != nil {
			t.Errorf("%s: Run returned %v", name, err)
		}
	}
}

// ScenarioCorpus.Lookup resolves corpus scenarios by name and
// classifies unknown names with the ErrUnknownScenario sentinel.
func TestLookup(t *testing.T) {
	c, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range c.Scenarios() {
		got, err := c.Lookup(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Lookup(%q) returned %+v, want %+v", want.Name, got, want)
		}
	}
	cases := []struct {
		name string
		want error
	}{
		{"nope", ErrUnknownScenario},
		{"", ErrUnknownScenario},
		{"clear-month ", ErrUnknownScenario}, // names are exact, no trimming
	}
	for _, tc := range cases {
		_, err := c.Lookup(tc.name)
		if !errors.Is(err, tc.want) {
			t.Errorf("Lookup(%q): got %v, want errors.Is(%v)", tc.name, err, tc.want)
		}
	}
	// The message must name what was asked for, so operators can see the
	// typo, and list what exists.
	if _, err := c.Lookup("nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("Lookup of unknown scenario: %v", err)
	}
}

// Cancelling mid-run must abort with the context error rather than
// recording a partial trace as success.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, mustScenario(t, "clear-month")); err == nil {
		t.Fatal("cancelled run reported success")
	}
}

// The mixed fleet must actually be heterogeneous: the α = 2 population
// plans differently from the α = 0.5 population under the same sky.
func TestMixedFleetHeterogeneous(t *testing.T) {
	res, err := Run(context.Background(), mustScenario(t, "mixed-fleet"))
	if err != nil {
		t.Fatal(err)
	}
	if a0, a1 := res.Configs[0].Alpha, res.Configs[1].Alpha; a0 == a1 {
		t.Fatalf("device 0 and 1 share alpha %v: override did not apply", a0)
	}
}

// mustScenario fetches a corpus scenario the test depends on.
func mustScenario(t testing.TB, name string) Scenario {
	t.Helper()
	c, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := c.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// Fleet churn: the fleet-churn scenario provisions device 4 at step 24
// and takes device 0 offline for [36, 60). Offline device-hours must be
// fully dead — no budget, no consumption, battery frozen — and the
// device must resume from its frozen battery when it rejoins.
func TestFleetChurnOfflineAccounting(t *testing.T) {
	res, err := Run(context.Background(), mustScenario(t, "fleet-churn"))
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	offline := func(dev, step int) bool {
		switch dev {
		case 4:
			return step < 24
		case 0:
			return step >= 36 && step < 60
		}
		return false
	}
	frozen := map[int]float64{}
	for step := 0; step < tr.Steps; step++ {
		for dev := 0; dev < tr.Devices; dev++ {
			r := tr.At(step, dev)
			if !offline(dev, step) {
				delete(frozen, dev)
				continue
			}
			if r.BudgetJ != 0 || r.ConsumedJ != 0 || r.HarvestJ != 0 {
				t.Fatalf("step %d dev %d: offline device has budget %v harvest %v consumed %v",
					step, dev, r.BudgetJ, r.HarvestJ, r.ConsumedJ)
			}
			if r.DeadS != res.Configs[dev].Period {
				t.Fatalf("step %d dev %d: offline period not fully dead (%v s)", step, dev, r.DeadS)
			}
			if prev, ok := frozen[dev]; ok && r.BatteryJ != prev {
				t.Fatalf("step %d dev %d: battery moved offline (%v -> %v)", step, dev, prev, r.BatteryJ)
			}
			frozen[dev] = r.BatteryJ
		}
	}
	// Device 0's first online step after rejoin starts from the frozen
	// battery level (continuity across the gap).
	preOffline := tr.At(35, 0).BatteryJ
	if got := tr.At(59, 0).BatteryJ; got != preOffline {
		t.Fatalf("device 0 battery drifted offline: %v -> %v", preOffline, got)
	}
	// The rejoined device must actually do work again.
	var post float64
	for step := 60; step < tr.Steps; step++ {
		post += tr.At(step, 0).ConsumedJ
	}
	if post == 0 {
		t.Fatal("device 0 never consumed after rejoining")
	}
}

// Correlated storms: removing the storm from the fault-storm scenario
// must strictly reduce both the fault count and total harvest — the
// correlated windows are where the cascade comes from.
func TestStormCorrelatedFaults(t *testing.T) {
	sc := mustScenario(t, "fault-storm")
	stormy, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	calm := sc
	calm.Storm = nil
	base, err := Run(context.Background(), calm)
	if err != nil {
		t.Fatal(err)
	}
	if stormy.Summary.FaultCount <= base.Summary.FaultCount {
		t.Fatalf("storm did not raise fault count: %d with storm, %d without",
			stormy.Summary.FaultCount, base.Summary.FaultCount)
	}
	if stormy.Summary.TotalHarvestJ >= base.Summary.TotalHarvestJ {
		t.Fatalf("storm did not darken the sky: %v J with storm, %v J without",
			stormy.Summary.TotalHarvestJ, base.Summary.TotalHarvestJ)
	}
	// Storm windows hit the whole fleet at once: some hour must see at
	// least two devices faulting together (p ≈ 1 per run at these rates).
	perStep := map[int]int{}
	for i := range stormy.Trace.Records {
		r := &stormy.Trace.Records[i]
		if r.Fault != "none" {
			perStep[r.Step]++
		}
	}
	correlated := 0
	for _, n := range perStep {
		if n >= 2 {
			correlated++
		}
	}
	if correlated == 0 {
		t.Fatal("no hour saw two devices faulting together; storms are not correlated")
	}
}

// Geographic fleets: devices in the same region share a sky sequence;
// devices in different regions see genuinely different weather.
func TestGeoFleetRegionalSkies(t *testing.T) {
	res, err := Run(context.Background(), mustScenario(t, "geo-fleet"))
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	diff := 0
	for step := 0; step < tr.Steps; step++ {
		// Devices 0 and 3 share region 0 (i % 3).
		if a, b := tr.At(step, 0).Sky, tr.At(step, 3).Sky; a != b {
			t.Fatalf("step %d: same-region devices saw %s vs %s", step, a, b)
		}
		if tr.At(step, 0).Sky != tr.At(step, 1).Sky {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("regions oslo and lisbon produced identical sky sequences")
	}
}

// Battery aging: the seasonal-aging scenario's consumption inflation
// must compound — switching aging off strictly reduces total consumed
// energy over the two-month horizon.
func TestSeasonalAgingInflatesConsumption(t *testing.T) {
	sc := mustScenario(t, "seasonal-aging")
	aged, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	fresh := sc
	fresh.AgingPerDay = 0
	base, err := Run(context.Background(), fresh)
	if err != nil {
		t.Fatal(err)
	}
	if aged.Summary.TotalConsumedJ <= base.Summary.TotalConsumedJ {
		t.Fatalf("aging did not inflate consumption: %v J aged, %v J fresh",
			aged.Summary.TotalConsumedJ, base.Summary.TotalConsumedJ)
	}
	// The horizon must actually cross the month boundary (30 November
	// days < 40 simulated days), or the seasonal seam is untested.
	if sc.Days*24 <= 30*24 {
		t.Fatalf("seasonal-aging horizon %d days does not cross the month boundary", sc.Days)
	}
}

// The statistical golden: utility and neutrality across independent
// seeds must be stable enough that a 95% confidence interval on the
// mean stays inside a fixed band. A regression that shifts the
// distribution — not just one seed — moves the interval out of the
// band; a single noisy seed does not.
func TestMultiSeedStatisticalGolden(t *testing.T) {
	const seeds = 8
	sc := mustScenario(t, "clear-month")
	var utilities, neutralities []float64
	for s := int64(0); s < seeds; s++ {
		run := sc
		run.Seed = sc.Seed + 100 + s
		res, err := Run(context.Background(), run)
		if err != nil {
			t.Fatal(err)
		}
		utilities = append(utilities, res.Summary.MeanUtility)
		neutralities = append(neutralities, res.Summary.NeutralityError)
	}
	uLo, uHi, err := meanCI(utilities, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	// The band is deliberately loose (±25% around the seed-1 golden's
	// utility): it catches distribution-level regressions, not noise.
	if uLo < 0.45 || uHi > 0.95 {
		t.Fatalf("mean utility CI [%v, %v] left the expected band [0.45, 0.95] (samples %v)",
			uLo, uHi, utilities)
	}
	if uHi-uLo > 0.15 {
		t.Fatalf("utility CI [%v, %v] too wide: seeds disagree wildly (samples %v)", uLo, uHi, utilities)
	}
	nLo, nHi, err := meanCI(neutralities, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if nLo < 0 || nHi > 0.5 {
		t.Fatalf("neutrality CI [%v, %v] outside [0, 0.5] (samples %v)", nLo, nHi, neutralities)
	}
}

// hourIntensity sums an hour's intensity from per-label window counts,
// not window by window, so its float rounding differs from the
// per-window mean in the last bits only. The trace cannot see that:
// the exact mean is an integer over 225,000, at least 1.1e-6 from any
// 4-decimal rounding boundary. Over fresh timelines stepped as the sim
// steps them, every hour must stay within 1e-12 of the per-window sum
// and format to the same int= field.
func TestHourIntensityMatchesPerWindowSum(t *testing.T) {
	const timelines, days = 100, 40
	perWindow := func(tl *synth.Timeline) float64 {
		var sum float64
		for w := 0; w < synth.WindowsPerHour; w++ {
			sum += activityIntensity[tl.NextLabel()]
		}
		return sum / synth.WindowsPerHour
	}
	var worst float64
	for i := 0; i < timelines; i++ {
		got, err := synth.NewTimeline(0, subSeed(1, i, saltTimeline))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := synth.NewTimeline(0, subSeed(1, i, saltTimeline))
		if err != nil {
			t.Fatal(err)
		}
		for h := 0; h < days*24; h++ {
			v, want := hourIntensity(got), perWindow(ref)
			worst = math.Max(worst, math.Abs(v-want))
			if math.Abs(v-want) > 1e-12 || f4(v) != f4(want) {
				t.Fatalf("timeline %d hour %d: intensity %v (int=%s), per-window sum %v (int=%s)",
					i, h, v, f4(v), want, f4(want))
			}
		}
	}
	t.Logf("largest difference over %d hours: %g", timelines*days*24, worst)
}

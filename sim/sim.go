// Package sim is a deterministic, seedable scenario simulator for fleets
// of REAP devices: the closed loop the paper evaluates (harvest → solve →
// execute → report), scaled to N devices over multi-day horizons and made
// reproducible enough to diff byte-for-byte.
//
// A Scenario composes the repository's models end to end:
//
//   - internal/solar synthesizes the hourly harvest trace (clear-sky
//     geometry × Markov weather × cell model), scaled and jittered per
//     device — per region, for geographic fleets;
//   - internal/forecast optionally turns the trace into EWMA-predicted
//     budgets, so devices plan on forecasts and absorb prediction error
//     through the controller's accounting loop;
//   - internal/synth streams per-device activity timelines whose hourly
//     intensity modulates realized consumption, plus injected sensor
//     faults with documented energy/utility effects;
//   - internal/energy prices the hourly fleet-telemetry BLE upload that
//     rides on top of every powered device's consumption;
//   - the public Fleet drives one Controller per device through
//     StepAll/ReportAll via the Fleet.Run closed-loop seam, including
//     mid-run membership churn (Fleet.SetActive).
//
// Scenarios are data: a scenario is defined only by a versioned,
// strictly-decoded JSON config (see config.go and the committed corpus
// under scenarios/), and Scenario is that config decoded. Load one with
// LoadScenario or through the Corpus API.
//
// Determinism: every random draw derives from Scenario.Seed through
// per-device, per-purpose sub-streams consumed in a fixed order, and the
// LP backends are deterministic. Two runs of the same scenario therefore
// produce byte-identical traces — the property the golden-trace harness
// in this package's tests locks down. Goldens are regenerated with
// `go test ./sim -run TestGolden -update`.
package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro"
	"repro/internal/energy"
	"repro/internal/forecast"
	"repro/internal/fpx"
	"repro/internal/solar"
	"repro/internal/synth"
)

// Scenario describes one deterministic simulation: the fleet, the
// harvest climate, the controller configuration, and the execution
// realism knobs. It is also the scenario's config-file form: the JSON
// tags name each field's key, zero-valued fields inherit the documented
// defaults, and config.go adds the schema version on decode. The zero
// value is not runnable; start from a corpus scenario (Corpus), a
// config file (LoadScenario) or fill the fields and let Run apply the
// documented defaults.
type Scenario struct {
	// Name identifies the scenario in traces and reports.
	Name string `json:"name"`
	// Description is a one-line summary for listings.
	Description string `json:"description,omitempty"`

	// Devices is the fleet size; Days the simulated horizon. Each day is
	// 24 hourly activity periods.
	Devices int `json:"devices"`
	Days    int `json:"days"`
	// Seed derives every random stream in the run.
	Seed int64 `json:"seed"`

	// Month and Year select the solar trace (internal/solar's Golden, CO
	// climate; the year seeds the Markov weather). Months extends the
	// horizon across that many consecutive calendar months (default 1),
	// wrapping past December into the next year — the seasonal-drift
	// seam: Days counts from the start of the span and may cross month
	// boundaries.
	Month  int `json:"month"`
	Year   int `json:"year"`
	Months int `json:"months,omitempty"`
	// HarvestScale scales every hourly harvest (default 1). DeviceJitter
	// spreads a per-device multiplicative factor uniformly in
	// [1-j, 1+j]; zero gives every device an identical harvest, the
	// correlated-budget regime of the lockstep scenario.
	HarvestScale float64 `json:"harvest_scale,omitempty"`
	DeviceJitter float64 `json:"device_jitter,omitempty"`

	// Alpha, BatteryJ, CapacityJ configure every controller (refine per
	// device with Populations). Solver is a name reap.WithSolver accepts
	// ("plan", "simplex" or "enumerate"); Validate refuses any other. An
	// empty Solver resolves to simplex, pinned so that the solver named
	// in each golden trace's header does not move (the golden harness
	// separately asserts the plan reproduces every trace
	// byte-for-byte).
	Alpha     float64 `json:"alpha,omitempty"`
	BatteryJ  float64 `json:"battery_j,omitempty"`
	CapacityJ float64 `json:"capacity_j,omitempty"`
	Solver    string  `json:"solver,omitempty"`

	// Forecast plans each budget from an EWMA prediction of the hour's
	// harvest (internal/forecast, per device, smoothing weight
	// forecastLambda) instead of the actual value; the first day warms
	// the predictor up on actuals.
	Forecast bool `json:"forecast,omitempty"`

	// Noise is the relative standard deviation of execution noise on
	// consumed energy. FaultRate is the per-device-hour probability of a
	// sensor fault episode (internal/synth's failure modes) with the
	// energy/utility effects documented at faultEffect.
	Noise     float64 `json:"noise,omitempty"`
	FaultRate float64 `json:"fault_rate,omitempty"`

	// AgingPerDay models battery aging over long horizons: each elapsed
	// day inflates realized consumption by a factor (1+AgingPerDay) —
	// compounding coulombic-efficiency loss, so a months-long run slides
	// out of energy neutrality unless the controller's accounting
	// absorbs it. Zero (the default) disables aging; FlatConsumption
	// runs are exempt (they are the exactness baseline).
	AgingPerDay float64 `json:"aging_per_day,omitempty"`

	// FlatConsumption makes execution exact: consumed = planned energy
	// (+ telemetry), no activity modulation, noise, faults or aging.
	// Used by correlated-budget scenarios, where divergent consumption
	// would decorrelate budgets, and by differential baselines.
	FlatConsumption bool `json:"flat_consumption,omitempty"`

	// Populations declaratively refines subsets of the fleet (the data
	// form of reap.WithDeviceOverride): device i takes the overrides of
	// every population it matches, in order. Mixed-α and mixed-battery
	// fleets are expressed this way.
	Populations []Population `json:"populations,omitempty"`

	// Regions partitions the fleet geographically: device i belongs to
	// Regions[i % len(Regions)]. Each region runs its own deterministic
	// Markov sky (seeded from the region name) over the same clear-sky
	// geometry, with a per-region harvest scale. Empty means one
	// implicit region on the canonical weather stream.
	Regions []Region `json:"regions,omitempty"`

	// Churn schedules mid-run fleet membership changes: at each event's
	// step, listed devices leave (battery and accounting freeze) or join
	// (resume from frozen state). A device whose first mention in the
	// schedule is a join starts the run offline — a provisioned device
	// that has not yet come online.
	Churn []ChurnEvent `json:"churn,omitempty"`

	// Storm, when non-nil, injects correlated fault storms: fleet-wide
	// weather windows during which every device's fault probability
	// jumps to Storm.FaultRate and harvest is scaled by
	// Storm.HarvestScale — the brownout-cascade regime, where faults and
	// energy starvation arrive together across the fleet instead of as
	// independent per-device coin flips.
	Storm *Storm `json:"storm,omitempty"`
}

// Population selects a subset of the fleet by index arithmetic and
// overrides its controller configuration. Zero-valued fields inherit
// the scenario-wide setting.
type Population struct {
	// Modulus/Residue select devices i with i % Modulus == Residue;
	// Modulus 0 selects every device and needs Residue 0.
	Modulus int `json:"modulus,omitempty"`
	Residue int `json:"residue,omitempty"`
	// Alpha overrides the accuracy/active-time emphasis (0 inherits).
	Alpha float64 `json:"alpha,omitempty"`
	// BatteryJ/CapacityJ override the battery (both zero inherits; when
	// set, they must pass reap.WithBattery).
	BatteryJ  float64 `json:"battery_j,omitempty"`
	CapacityJ float64 `json:"capacity_j,omitempty"`
}

// Region is one geographic segment of a fleet: its own deterministic
// sky sequence (seeded from the name) and harvest scale over the shared
// clear-sky geometry.
type Region struct {
	// Name seeds the region's weather stream and labels it; regions of
	// one scenario must have distinct names.
	Name string `json:"name,omitempty"`
	// HarvestScale multiplies the region's hourly harvest (0 means 1).
	HarvestScale float64 `json:"harvest_scale,omitempty"`
}

// ChurnEvent is one scheduled fleet-membership change.
type ChurnEvent struct {
	// Step is the hour index (from scenario start) the event applies at,
	// before budgets are drawn for that hour.
	Step int `json:"step"`
	// Join and Leave list device indices coming online / going offline.
	Join  []int `json:"join,omitempty"`
	Leave []int `json:"leave,omitempty"`
}

// Storm configures correlated fault storms and brownout cascades. Storm
// windows are drawn once per run from a dedicated fleet-level seed
// stream: each hour outside a storm starts one with probability
// StartRate, lasting DurationHours.
type Storm struct {
	// StartRate is the per-hour probability a storm begins.
	StartRate float64 `json:"start_rate"`
	// DurationHours is how long each storm lasts.
	DurationHours int `json:"duration_hours"`
	// FaultRate replaces the scenario fault rate during a storm when it
	// is larger — correlated episodes across the whole fleet.
	FaultRate float64 `json:"fault_rate,omitempty"`
	// HarvestScale multiplies harvest during a storm (0 means 1); values
	// below 1 model the cloud bank that arrives with the storm.
	HarvestScale float64 `json:"harvest_scale,omitempty"`
}

// months returns the calendar span of the horizon (default 1).
func (sc Scenario) months() int {
	if sc.Months <= 0 {
		return 1
	}
	return sc.Months
}

// spanDays returns the total days available in the scenario's calendar
// span (non-leap, like solar.DaysInMonth).
func (sc Scenario) spanDays() int {
	total := 0
	m := sc.Month
	for k := 0; k < sc.months(); k++ {
		total += solar.DaysInMonth(m)
		m++
		if m > 12 {
			m = 1
		}
	}
	return total
}

// forecastLambda is the smoothing weight of every Forecast device's
// EWMA predictor.
const forecastLambda = 0.5

// telemetryBytes is the fleet-telemetry BLE payload every powered
// device uploads each hour (internal/energy's radio model).
const telemetryBytes = 24

// withDefaults fills the zero-value knobs with the documented defaults.
func (sc Scenario) withDefaults() Scenario {
	if fpx.Zero(sc.HarvestScale) {
		sc.HarvestScale = 1
	}
	if fpx.Zero(sc.Alpha) {
		sc.Alpha = 1
	}
	if sc.Solver == "" {
		sc.Solver = reap.SolverSimplex
	}
	return sc
}

// Validate checks the scenario after defaults are applied.
func (sc Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("%w: scenario needs a name", ErrInvalidScenario)
	}
	if sc.Devices <= 0 {
		return fmt.Errorf("%w: %s: %d devices must be positive", ErrInvalidScenario, sc.Name, sc.Devices)
	}
	if sc.Month < 1 || sc.Month > 12 {
		return fmt.Errorf("%w: %s: month %d outside 1..12", ErrInvalidScenario, sc.Name, sc.Month)
	}
	if sc.Months < 0 || sc.Months > 36 {
		return fmt.Errorf("%w: %s: months %d outside 0..36", ErrInvalidScenario, sc.Name, sc.Months)
	}
	if sc.Days <= 0 || sc.Days > sc.spanDays() {
		return fmt.Errorf("%w: %s: %d days outside 1..%d (month %d, %d months)",
			ErrInvalidScenario, sc.Name, sc.Days, sc.spanDays(), sc.Month, sc.months())
	}
	if sc.HarvestScale <= 0 || math.IsNaN(sc.HarvestScale) || math.IsInf(sc.HarvestScale, 0) {
		return fmt.Errorf("%w: %s: harvest scale %v must be positive and finite", ErrInvalidScenario, sc.Name, sc.HarvestScale)
	}
	if sc.DeviceJitter < 0 || sc.DeviceJitter >= 1 || math.IsNaN(sc.DeviceJitter) {
		return fmt.Errorf("%w: %s: device jitter %v outside [0,1)", ErrInvalidScenario, sc.Name, sc.DeviceJitter)
	}
	if sc.Noise < 0 || math.IsNaN(sc.Noise) {
		return fmt.Errorf("%w: %s: noise %v must be non-negative", ErrInvalidScenario, sc.Name, sc.Noise)
	}
	if sc.FaultRate < 0 || sc.FaultRate > 1 || math.IsNaN(sc.FaultRate) {
		return fmt.Errorf("%w: %s: fault rate %v outside [0,1]", ErrInvalidScenario, sc.Name, sc.FaultRate)
	}
	if sc.AgingPerDay < 0 || sc.AgingPerDay > 0.1 || math.IsNaN(sc.AgingPerDay) {
		return fmt.Errorf("%w: %s: aging %v per day outside [0, 0.1]", ErrInvalidScenario, sc.Name, sc.AgingPerDay)
	}
	// The controller settings go through the options Run builds the
	// fleet from (spelled out in both places, so that neither list
	// escapes to the heap), and Validate refuses what Run would.
	if _, err := reap.NewConfig(reap.WithAlpha(sc.Alpha), reap.WithBattery(sc.BatteryJ, sc.CapacityJ),
		reap.WithSolver(sc.Solver)); err != nil {
		return fmt.Errorf("%w: %s: %w", ErrInvalidScenario, sc.Name, err)
	}
	for pi, p := range sc.Populations {
		if p.Modulus == 0 && p.Residue != 0 {
			return fmt.Errorf("%w: %s: population %d: residue %d without a modulus",
				ErrInvalidScenario, sc.Name, pi, p.Residue)
		}
		if p.Modulus < 0 || (p.Modulus > 0 && (p.Residue < 0 || p.Residue >= p.Modulus)) {
			return fmt.Errorf("%w: %s: population %d: residue %d outside [0,%d)",
				ErrInvalidScenario, sc.Name, pi, p.Residue, p.Modulus)
		}
		if _, err := reap.NewConfig(p.appendOptions(nil)...); err != nil {
			return fmt.Errorf("%w: %s: population %d: %w", ErrInvalidScenario, sc.Name, pi, err)
		}
	}
	seen := map[string]bool{}
	for ri, r := range sc.Regions {
		if seen[r.Name] {
			return fmt.Errorf("%w: %s: duplicate region %q", ErrInvalidScenario, sc.Name, r.Name)
		}
		seen[r.Name] = true
		if r.HarvestScale < 0 || math.IsNaN(r.HarvestScale) || math.IsInf(r.HarvestScale, 0) {
			return fmt.Errorf("%w: %s: region %d: harvest scale %v must be non-negative and finite",
				ErrInvalidScenario, sc.Name, ri, r.HarvestScale)
		}
	}
	steps := sc.Days * 24
	for ei, ev := range sc.Churn {
		if ev.Step < 0 || ev.Step >= steps {
			return fmt.Errorf("%w: %s: churn event %d: step %d outside [0,%d)",
				ErrInvalidScenario, sc.Name, ei, ev.Step, steps)
		}
		if ei > 0 && ev.Step < sc.Churn[ei-1].Step {
			return fmt.Errorf("%w: %s: churn events out of order at %d", ErrInvalidScenario, sc.Name, ei)
		}
		for _, d := range append(append([]int(nil), ev.Join...), ev.Leave...) {
			if d < 0 || d >= sc.Devices {
				return fmt.Errorf("%w: %s: churn event %d: device %d outside fleet [0,%d)",
					ErrInvalidScenario, sc.Name, ei, d, sc.Devices)
			}
		}
	}
	if st := sc.Storm; st != nil {
		if st.StartRate < 0 || st.StartRate > 1 || math.IsNaN(st.StartRate) {
			return fmt.Errorf("%w: %s: storm start rate %v outside [0,1]", ErrInvalidScenario, sc.Name, st.StartRate)
		}
		if st.StartRate > 0 && st.DurationHours <= 0 {
			return fmt.Errorf("%w: %s: storm duration %d hours must be positive", ErrInvalidScenario, sc.Name, st.DurationHours)
		}
		if st.FaultRate < 0 || st.FaultRate > 1 || math.IsNaN(st.FaultRate) {
			return fmt.Errorf("%w: %s: storm fault rate %v outside [0,1]", ErrInvalidScenario, sc.Name, st.FaultRate)
		}
		if st.HarvestScale < 0 || math.IsNaN(st.HarvestScale) || math.IsInf(st.HarvestScale, 0) {
			return fmt.Errorf("%w: %s: storm harvest scale %v must be non-negative and finite",
				ErrInvalidScenario, sc.Name, st.HarvestScale)
		}
	}
	return nil
}

// appendOptions appends the population's overrides to opts: alpha, then
// battery, each only when set. They touch distinct settings, so the
// order is cosmetic.
func (p Population) appendOptions(opts []reap.Option) []reap.Option {
	if !fpx.Zero(p.Alpha) {
		opts = append(opts, reap.WithAlpha(p.Alpha))
	}
	if !fpx.Zero(p.BatteryJ) || !fpx.Zero(p.CapacityJ) {
		opts = append(opts, reap.WithBattery(p.BatteryJ, p.CapacityJ))
	}
	return opts
}

// perDeviceOverride synthesizes the per-device options from the
// declarative Populations, applied in population order.
func (sc Scenario) perDeviceOverride() func(int) []reap.Option {
	if len(sc.Populations) == 0 {
		return nil
	}
	pops := sc.Populations
	return func(i int) []reap.Option {
		var opts []reap.Option
		for _, p := range pops {
			if p.Modulus > 0 && i%p.Modulus != p.Residue {
				continue
			}
			opts = p.appendOptions(opts)
		}
		return opts
	}
}

// Result bundles one run's outputs: the fully-defaulted scenario, the
// per-step trace, summary metrics, and each device's resolved
// configuration (needed to evaluate allocations from the trace).
type Result struct {
	Scenario Scenario
	Trace    *Trace
	Summary  Summary
	Configs  []reap.Config
}

// Sub-stream salts: each randomized concern draws from its own
// deterministic stream so adding draws to one never perturbs another.
const (
	saltJitter = iota + 1
	saltTimeline
	saltNoise
	saltFault
	saltStorm
)

// subSeed derives a per-device, per-purpose seed from the scenario seed
// (splitmix64 finalizer — consecutive inputs map to well-spread outputs).
func subSeed(seed int64, device int, salt int64) int64 {
	x := uint64(seed) + 0x9e3779b97f4a7c15*uint64(device+1) + 0xbf58476d1ce4e5b9*uint64(salt)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// deviceStreams seeds one random stream per device for the purpose the
// salt names.
func deviceStreams(sc Scenario, salt int64) []*rand.Rand {
	rngs := make([]*rand.Rand, sc.Devices)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(subSeed(sc.Seed, i, salt)))
	}
	return rngs
}

// activityIntensity maps each synth activity class onto a motion-
// intensity coefficient in [0,1]; an hour's mean intensity modulates the
// consumption model (vigorous hours cost slightly more: extra interrupt
// handling and BLE retransmissions under motion artifacts).
var activityIntensity = [synth.NumActivities]float64{
	synth.Sit:        0.08,
	synth.Stand:      0.15,
	synth.Walk:       0.60,
	synth.Jump:       1.00,
	synth.Drive:      0.30,
	synth.LieDown:    0.02,
	synth.Transition: 0.45,
}

// faultEffect returns the consumption and utility multipliers of a fault
// episode lasting one activity period:
//
//   - StuckAxis: energy unchanged, recognition degraded (one axis lies).
//   - Dropout: the bus stall browns the period out partway — both
//     consumption and useful output are cut roughly in half.
//   - SpikeNoise: connector chatter re-triggers processing (slightly
//     more energy) and corrupts windows (less utility).
//   - StretchDetached: energy unchanged, stretch-dependent accuracy lost.
func faultEffect(f synth.Fault) (consumedScale, utilityScale float64) {
	switch f {
	case synth.StuckAxis:
		return 1.00, 0.85
	case synth.Dropout:
		return 0.55, 0.50
	case synth.SpikeNoise:
		return 1.08, 0.90
	case synth.StretchDetached:
		return 1.00, 0.80
	default:
		return 1, 1
	}
}

// simulator holds one run's state; it implements reap.HarvestSource and
// reap.ConsumptionModel, and records the trace from the step observer.
type simulator struct {
	sc    Scenario
	fleet *reap.Fleet
	cfgs  []reap.Config

	// hours and skies are per-region: device i reads region i % len.
	hours [][]float64 // scenario- and region-scaled hourly harvest
	skies [][]solar.Sky

	// The per-device models; noiseRng and faultRng stay nil in a
	// scenario that never draws them.
	jitter    []float64
	ewma      []*forecast.EWMA
	timelines []*synth.Timeline
	noiseRng  []*rand.Rand
	faultRng  []*rand.Rand

	telemetryJ float64

	// stormMask marks the hours a correlated storm covers; aging holds
	// the per-day consumption inflation factor. Both nil when unused.
	stormMask []bool
	aging     []float64

	// churnIdx walks the (validated, step-ordered) churn schedule as
	// Budgets advances through the horizon.
	churnIdx int

	// Per-step scratch, filled by Budgets/Consumed and read by observe.
	actual    []float64
	planned   []float64
	intensity []float64
	faults    []synth.Fault

	records []StepRecord
	// schedules is the unused tail of one slab that holds every
	// record's Active copy; observe carves each copy off its front.
	schedules []float64
}

// regionOf maps a device to its region index (round-robin).
func (s *simulator) regionOf(i int) int { return i % len(s.hours) }

// applyChurn applies every churn event scheduled at the given step.
func (s *simulator) applyChurn(step int) error {
	for s.churnIdx < len(s.sc.Churn) && s.sc.Churn[s.churnIdx].Step == step {
		ev := s.sc.Churn[s.churnIdx]
		for _, d := range ev.Leave {
			if err := s.fleet.SetActive(d, false); err != nil {
				return err
			}
		}
		for _, d := range ev.Join {
			if err := s.fleet.SetActive(d, true); err != nil {
				return err
			}
		}
		s.churnIdx++
	}
	return nil
}

// Budgets implements reap.HarvestSource: actual harvest is the device's
// regional solar hour scaled per device; the budget handed to the fleet
// is either that actual value or, under Forecast, the device's EWMA
// prediction (actuals warm the predictor up during the first day).
// Offline devices (churn) harvest nothing and keep their predictors
// frozen.
func (s *simulator) Budgets(step int, dst []float64) error {
	if err := s.applyChurn(step); err != nil {
		return err
	}
	storm := s.stormMask != nil && s.stormMask[step]
	for i := range dst {
		if !s.fleet.Active(i) {
			s.actual[i] = 0
			dst[i] = 0
			continue
		}
		h := s.hours[s.regionOf(i)][step]
		if storm {
			h *= s.stormHarvestScale()
		}
		actual := h * s.jitter[i]
		s.actual[i] = actual
		budget := actual
		if s.sc.Forecast {
			if step >= forecast.SlotsPerDay {
				budget = s.ewma[i].PredictAt(0)
			}
			if err := s.ewma[i].Observe(actual); err != nil {
				return err
			}
		}
		dst[i] = budget
	}
	return nil
}

// stormHarvestScale resolves the storm's harvest multiplier (0 = 1).
func (s *simulator) stormHarvestScale() float64 {
	if s.sc.Storm == nil || fpx.Zero(s.sc.Storm.HarvestScale) {
		return 1
	}
	return s.sc.Storm.HarvestScale
}

// Consumed implements reap.ConsumptionModel: realized consumption is the
// planned energy modulated by the hour's activity intensity, execution
// noise, fault episodes and battery aging, plus the telemetry upload for
// powered devices. Under FlatConsumption it is exactly planned
// (+ telemetry). Offline devices consume nothing, but their users keep
// living: the activity timeline skips the hour so a rejoining device
// lands at the right time of day.
func (s *simulator) Consumed(step int, allocs []reap.Allocation, dst []float64) error {
	storm := s.stormMask != nil && s.stormMask[step]
	for i := range dst {
		cfg := s.cfgs[i]
		s.faults[i] = synth.NoFault
		if !s.fleet.Active(i) {
			if s.timelines != nil {
				s.timelines[i].Advance(synth.WindowsPerHour)
			}
			s.intensity[i] = 0
			dst[i] = 0
			continue
		}
		planned := allocs[i].Energy(cfg)
		s.planned[i] = planned
		// A device dead for most of the period cannot run its hourly
		// telemetry upload.
		telemetry := s.telemetryJ
		if allocs[i].Dead >= cfg.Period/2 {
			telemetry = 0
		}
		if s.sc.FlatConsumption {
			s.intensity[i] = 0
			dst[i] = planned + telemetry
			continue
		}
		intensity := hourIntensity(s.timelines[i])
		s.intensity[i] = intensity
		consumed := planned * (0.95 + 0.10*intensity)
		rate := s.sc.FaultRate
		if storm && s.sc.Storm.FaultRate > rate {
			rate = s.sc.Storm.FaultRate
		}
		if rate > 0 && s.faultRng[i].Float64() < rate {
			faults := synth.Faults()
			f := faults[s.faultRng[i].Intn(len(faults))]
			s.faults[i] = f
			scale, _ := faultEffect(f)
			consumed *= scale
		}
		if s.sc.Noise > 0 {
			factor := 1 + s.sc.Noise*s.noiseRng[i].NormFloat64()
			factor = math.Min(1.5, math.Max(0.5, factor))
			consumed *= factor
		}
		consumed += telemetry
		if s.aging != nil {
			consumed *= s.aging[step/24]
		}
		if consumed < 0 {
			consumed = 0
		}
		dst[i] = consumed
	}
	return nil
}

// hourIntensity advances tl one hour and returns the mean intensity of
// its windows, from the hour's per-label window counts. Its exact value
// is an integer over 225,000 (intensities are hundredths, 2,250 windows
// an hour), which is never within 1.1e-6 of the trace's 4-decimal
// rounding boundary, so the float summation order cannot move a trace
// digit.
func hourIntensity(tl *synth.Timeline) float64 {
	counts := tl.Advance(synth.WindowsPerHour)
	var sum float64
	for a, n := range counts {
		sum += float64(n) * activityIntensity[a]
	}
	return sum / synth.WindowsPerHour
}

// observe records one trace line per device for the completed step.
// Offline devices record a fully-dead period: no budget, no allocation,
// no consumption, battery frozen at its last online value. An online
// device's schedule is copied into the next len(Active) slots of the
// schedule slab, capped by a full-slice expression so that appending
// to one record's Active cannot write into the next record's.
func (s *simulator) observe(step int, budgets []float64, allocs []reap.Allocation, consumed []float64) error {
	for i := range allocs {
		dev, err := s.fleet.Device(i)
		if err != nil {
			return err
		}
		cfg := s.cfgs[i]
		sky := s.skies[s.regionOf(i)][step].String()
		if !s.fleet.Active(i) {
			s.records = append(s.records, StepRecord{
				Step:     step,
				Device:   i,
				Sky:      sky,
				DeadS:    cfg.Period,
				BatteryJ: dev.Battery(),
				Fault:    synth.NoFault.String(),
			})
			continue
		}
		acc := allocs[i].ExpectedAccuracy(cfg)
		_, utilScale := faultEffect(s.faults[i])
		n := len(allocs[i].Active)
		active := s.schedules[:n:n]
		s.schedules = s.schedules[n:]
		copy(active, allocs[i].Active)
		s.records = append(s.records, StepRecord{
			Step:         step,
			Device:       i,
			Sky:          sky,
			HarvestJ:     s.actual[i],
			BudgetJ:      budgets[i],
			SolveBudgetJ: dev.LastBudget(),
			Active:       active,
			OffS:         allocs[i].Off,
			DeadS:        allocs[i].Dead,
			PlannedJ:     s.planned[i],
			ConsumedJ:    consumed[i],
			BatteryJ:     dev.Battery(),
			Intensity:    s.intensity[i],
			Fault:        s.faults[i].String(),
			Accuracy:     acc,
			Utility:      acc * utilScale,
		})
	}
	return nil
}

// buildHarvest assembles the per-region hourly harvest and sky
// sequences over the scenario's calendar span.
func (s *simulator) buildHarvest(sc Scenario, steps int) error {
	regions := sc.Regions
	if len(regions) == 0 {
		regions = []Region{{}}
	}
	s.hours = make([][]float64, len(regions))
	s.skies = make([][]solar.Sky, len(regions))
	for r, region := range regions {
		scale := region.HarvestScale
		if fpx.Zero(scale) {
			scale = 1
		}
		hours := make([]float64, 0, steps)
		skies := make([]solar.Sky, 0, steps)
		month, year := sc.Month, sc.Year
		for k := 0; k < sc.months() && len(hours) < steps; k++ {
			tr, err := solar.MonthlyTraceSeeded(month, year, solar.DefaultCell(),
				solar.RegionWeatherSeed(month, year, region.Name))
			if err != nil {
				return fmt.Errorf("%s: region %q: %w", sc.Name, region.Name, err)
			}
			for h := 0; h < len(tr.Hours) && len(hours) < steps; h++ {
				hours = append(hours, tr.Hours[h]*sc.HarvestScale*scale)
				skies = append(skies, tr.Skies[h])
			}
			month++
			if month > 12 {
				month, year = 1, year+1
			}
		}
		if len(hours) < steps {
			return fmt.Errorf("%w: %s: span yields %d hours for %d steps",
				ErrInvalidScenario, sc.Name, len(hours), steps)
		}
		s.hours[r] = hours
		s.skies[r] = skies
	}
	return nil
}

// buildStormMask draws the correlated storm windows from the dedicated
// fleet-level seed stream.
func (s *simulator) buildStormMask(sc Scenario, steps int) {
	st := sc.Storm
	if st == nil || fpx.Zero(st.StartRate) {
		return
	}
	rng := rand.New(rand.NewSource(subSeed(sc.Seed, 0, saltStorm)))
	mask := make([]bool, steps)
	remaining := 0
	for h := 0; h < steps; h++ {
		if remaining == 0 && rng.Float64() < st.StartRate {
			remaining = st.DurationHours
		}
		if remaining > 0 {
			mask[h] = true
			remaining--
		}
	}
	s.stormMask = mask
}

// initialChurnState marks devices whose first scheduled mention is a
// join as offline from the start — provisioned but not yet online.
func initialChurnState(sc Scenario, fleet *reap.Fleet) error {
	mentioned := map[int]bool{}
	for _, ev := range sc.Churn {
		for _, d := range ev.Leave {
			mentioned[d] = true
		}
		for _, d := range ev.Join {
			if !mentioned[d] {
				mentioned[d] = true
				if err := fleet.SetActive(d, false); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Run executes the scenario and returns its trace, summary metrics and
// per-device configurations. Same scenario (including seed) in, same
// trace bytes out — see the package comment for the determinism
// contract.
func Run(ctx context.Context, sc Scenario) (*Result, error) {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	steps := sc.Days * 24

	opts := []reap.Option{
		reap.WithAlpha(sc.Alpha),
		reap.WithBattery(sc.BatteryJ, sc.CapacityJ),
		reap.WithSolver(sc.Solver),
	}
	if override := sc.perDeviceOverride(); override != nil {
		opts = append(opts, reap.WithDeviceOverride(override))
	}
	fleet, err := reap.NewFleet(sc.Devices, opts...)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", sc.Name, err)
	}

	s := &simulator{
		sc:         sc,
		fleet:      fleet,
		cfgs:       make([]reap.Config, sc.Devices),
		jitter:     make([]float64, sc.Devices),
		telemetryJ: energy.BLETransmission(telemetryBytes),
		actual:     make([]float64, sc.Devices),
		planned:    make([]float64, sc.Devices),
		intensity:  make([]float64, sc.Devices),
		faults:     make([]synth.Fault, sc.Devices),
		records:    make([]StepRecord, 0, steps*sc.Devices),
	}
	if err := s.buildHarvest(sc, steps); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	s.buildStormMask(sc, steps)
	if sc.AgingPerDay > 0 && !sc.FlatConsumption {
		s.aging = make([]float64, sc.Days)
		for d := range s.aging {
			s.aging[d] = math.Pow(1+sc.AgingPerDay, float64(d))
		}
	}
	if err := initialChurnState(sc, fleet); err != nil {
		return nil, fmt.Errorf("sim: %s: %w", sc.Name, err)
	}

	batteryStarts := make([]float64, sc.Devices)
	dps := 0
	for i := 0; i < sc.Devices; i++ {
		dev, err := fleet.Device(i)
		if err != nil {
			return nil, err
		}
		s.cfgs[i] = dev.Config()
		batteryStarts[i] = dev.Battery()
		dps += len(s.cfgs[i].DPs)
	}
	// Room for every device's schedule at every step: a device's
	// allocation has one entry per design point of its configuration.
	s.schedules = make([]float64, steps*dps)

	jitterRng := rand.New(rand.NewSource(subSeed(sc.Seed, 0, saltJitter)))
	for i := range s.jitter {
		s.jitter[i] = 1
		if sc.DeviceJitter > 0 {
			s.jitter[i] = 1 + sc.DeviceJitter*(2*jitterRng.Float64()-1)
		}
	}
	if sc.Forecast {
		s.ewma = make([]*forecast.EWMA, sc.Devices)
		for i := range s.ewma {
			if s.ewma[i], err = forecast.NewEWMA(forecastLambda); err != nil {
				return nil, fmt.Errorf("sim: %s: %w", sc.Name, err)
			}
		}
	}
	// Consumed draws from a device's noise stream only when the
	// scenario has noise, and from its fault stream only when the
	// scenario or its storm has a fault rate. A stream that would never
	// be drawn is not seeded: seeding fills a rand.Source's whole state.
	if !sc.FlatConsumption {
		s.timelines = make([]*synth.Timeline, sc.Devices)
		for i := range s.timelines {
			if s.timelines[i], err = synth.NewTimeline(0, subSeed(sc.Seed, i, saltTimeline)); err != nil {
				return nil, fmt.Errorf("sim: %s: %w", sc.Name, err)
			}
		}
		if sc.Noise > 0 {
			s.noiseRng = deviceStreams(sc, saltNoise)
		}
		if sc.FaultRate > 0 || (sc.Storm != nil && sc.Storm.FaultRate > 0) {
			s.faultRng = deviceStreams(sc, saltFault)
		}
	}

	start := time.Now()
	if err := fleet.Run(ctx, steps, s, s, s.observe); err != nil {
		return nil, fmt.Errorf("sim: %s: %w", sc.Name, err)
	}
	elapsed := time.Since(start)

	batteryEnd := 0.0
	for i := 0; i < sc.Devices; i++ {
		dev, _ := fleet.Device(i)
		batteryEnd += dev.Battery()
	}

	res := &Result{
		Scenario: sc,
		Trace: &Trace{
			Scenario: sc.Name,
			Seed:     sc.Seed,
			Devices:  sc.Devices,
			Steps:    steps,
			Solver:   sc.Solver,
			Records:  s.records,
		},
		Configs: s.cfgs,
	}
	if res.Summary, err = summarize(res, batteryStarts, batteryEnd, elapsed); err != nil {
		return nil, fmt.Errorf("sim: %s: %w", sc.Name, err)
	}
	return res, nil
}

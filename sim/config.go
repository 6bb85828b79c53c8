package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Scenario-as-data: the versioned JSON config format scenarios are
// defined in. The format follows the wire/ schema discipline:
//
//   - Every config carries an explicit schema version in its "v" field.
//     A loader only accepts the version it speaks; an unversioned
//     config is a version-0 config and is rejected, so stale corpora
//     fail loudly instead of being misparsed.
//   - Configs decode strictly: unknown fields, version mismatches and
//     trailing data are all errors wrapping ErrConfigMalformed. A
//     config either matches the schema exactly or does not load.
//   - Fields name their units (energy "_j", rates "_per_day") — the
//     same discipline as the solver API and wire schema.
//   - Encode is canonical: decode → encode → decode is byte-stable,
//     and every committed corpus file is in canonical form (pinned by
//     test), so config diffs are semantic diffs.
//
// ConfigVersion is 2: "corpus v1" was the Go-constructor library of
// PR 3; v2 is the first scenarios-as-data schema.
const ConfigVersion = 2

// ScenarioConfig is the JSON form of a Scenario. Zero-valued fields
// inherit the documented scenario defaults, exactly like the Scenario
// struct itself; the "v" version field is the only addition.
type ScenarioConfig struct {
	V           int    `json:"v"`
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	Devices int   `json:"devices"`
	Days    int   `json:"days"`
	Seed    int64 `json:"seed"`

	Month  int `json:"month"`
	Year   int `json:"year"`
	Months int `json:"months,omitempty"`

	HarvestScale float64 `json:"harvest_scale,omitempty"`
	DeviceJitter float64 `json:"device_jitter,omitempty"`

	Alpha     float64 `json:"alpha,omitempty"`
	BatteryJ  float64 `json:"battery_j,omitempty"`
	CapacityJ float64 `json:"capacity_j,omitempty"`
	Solver    string  `json:"solver,omitempty"`
	Workers   int     `json:"workers,omitempty"`

	Forecast       bool    `json:"forecast,omitempty"`
	ForecastLambda float64 `json:"forecast_lambda,omitempty"`

	Noise          float64 `json:"noise,omitempty"`
	FaultRate      float64 `json:"fault_rate,omitempty"`
	TelemetryBytes int     `json:"telemetry_bytes,omitempty"`
	AgingPerDay    float64 `json:"aging_per_day,omitempty"`

	FlatConsumption bool `json:"flat_consumption,omitempty"`

	Populations []PopulationConfig `json:"populations,omitempty"`
	Regions     []RegionConfig     `json:"regions,omitempty"`
	Churn       []ChurnEventConfig `json:"churn,omitempty"`
	Storm       *StormConfig       `json:"storm,omitempty"`
}

// PopulationConfig is the JSON form of a Population.
type PopulationConfig struct {
	Modulus   int     `json:"modulus,omitempty"`
	Residue   int     `json:"residue,omitempty"`
	Alpha     float64 `json:"alpha,omitempty"`
	BatteryJ  float64 `json:"battery_j,omitempty"`
	CapacityJ float64 `json:"capacity_j,omitempty"`
	Solver    string  `json:"solver,omitempty"`
}

// RegionConfig is the JSON form of a Region.
type RegionConfig struct {
	Name         string  `json:"name,omitempty"`
	HarvestScale float64 `json:"harvest_scale,omitempty"`
}

// ChurnEventConfig is the JSON form of a ChurnEvent.
type ChurnEventConfig struct {
	Step  int   `json:"step"`
	Join  []int `json:"join,omitempty"`
	Leave []int `json:"leave,omitempty"`
}

// StormConfig is the JSON form of a Storm.
type StormConfig struct {
	StartRate     float64 `json:"start_rate"`
	DurationHours int     `json:"duration_hours"`
	FaultRate     float64 `json:"fault_rate,omitempty"`
	HarvestScale  float64 `json:"harvest_scale,omitempty"`
}

// Scenario converts the config to its runnable form. The conversion is
// purely structural; validation happens through Scenario.Validate (Run
// and ParseScenario both apply it).
func (c ScenarioConfig) Scenario() Scenario {
	sc := Scenario{
		Name:            c.Name,
		Description:     c.Description,
		Devices:         c.Devices,
		Days:            c.Days,
		Seed:            c.Seed,
		Month:           c.Month,
		Year:            c.Year,
		Months:          c.Months,
		HarvestScale:    c.HarvestScale,
		DeviceJitter:    c.DeviceJitter,
		Alpha:           c.Alpha,
		BatteryJ:        c.BatteryJ,
		CapacityJ:       c.CapacityJ,
		Solver:          c.Solver,
		Workers:         c.Workers,
		Forecast:        c.Forecast,
		ForecastLambda:  c.ForecastLambda,
		Noise:           c.Noise,
		FaultRate:       c.FaultRate,
		TelemetryBytes:  c.TelemetryBytes,
		AgingPerDay:     c.AgingPerDay,
		FlatConsumption: c.FlatConsumption,
	}
	for _, p := range c.Populations {
		sc.Populations = append(sc.Populations, Population(p))
	}
	for _, r := range c.Regions {
		sc.Regions = append(sc.Regions, Region(r))
	}
	for _, e := range c.Churn {
		sc.Churn = append(sc.Churn, ChurnEvent{Step: e.Step, Join: e.Join, Leave: e.Leave})
	}
	if c.Storm != nil {
		st := Storm(*c.Storm)
		sc.Storm = &st
	}
	return sc
}

// ConfigFromScenario converts a Scenario to its config form. Scenarios
// carrying a programmatic PerDevice hook are not representable as data
// and return an error wrapping ErrInvalidScenario — express the
// heterogeneity with Populations instead.
func ConfigFromScenario(sc Scenario) (ScenarioConfig, error) {
	if sc.PerDevice != nil {
		return ScenarioConfig{}, fmt.Errorf(
			"%w: %s: a PerDevice func is not representable as config; use Populations", ErrInvalidScenario, sc.Name)
	}
	c := ScenarioConfig{
		V:               ConfigVersion,
		Name:            sc.Name,
		Description:     sc.Description,
		Devices:         sc.Devices,
		Days:            sc.Days,
		Seed:            sc.Seed,
		Month:           sc.Month,
		Year:            sc.Year,
		Months:          sc.Months,
		HarvestScale:    sc.HarvestScale,
		DeviceJitter:    sc.DeviceJitter,
		Alpha:           sc.Alpha,
		BatteryJ:        sc.BatteryJ,
		CapacityJ:       sc.CapacityJ,
		Solver:          sc.Solver,
		Workers:         sc.Workers,
		Forecast:        sc.Forecast,
		ForecastLambda:  sc.ForecastLambda,
		Noise:           sc.Noise,
		FaultRate:       sc.FaultRate,
		TelemetryBytes:  sc.TelemetryBytes,
		AgingPerDay:     sc.AgingPerDay,
		FlatConsumption: sc.FlatConsumption,
	}
	for _, p := range sc.Populations {
		c.Populations = append(c.Populations, PopulationConfig(p))
	}
	for _, r := range sc.Regions {
		c.Regions = append(c.Regions, RegionConfig(r))
	}
	for _, e := range sc.Churn {
		c.Churn = append(c.Churn, ChurnEventConfig{Step: e.Step, Join: e.Join, Leave: e.Leave})
	}
	if sc.Storm != nil {
		st := StormConfig(*sc.Storm)
		c.Storm = &st
	}
	return c, nil
}

// Encode renders the config in its canonical byte form: two-space
// indented JSON with a trailing newline. Every committed corpus file is
// in this form, making decode → encode → decode byte-stable (the
// round-trip regression the corpus tests pin).
func (c ScenarioConfig) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("%w: encoding %s: %v", ErrConfigMalformed, c.Name, err)
	}
	return append(data, '\n'), nil
}

// DecodeScenarioConfig decodes one config from r under the strict
// contract: unknown fields, trailing data and version mismatches all
// fail with errors wrapping ErrConfigMalformed. Scenario-semantics
// validation is separate (ParseScenario, Scenario.Validate) so tooling
// can round-trip syntactically-valid configs it would not run.
func DecodeScenarioConfig(r io.Reader) (ScenarioConfig, error) {
	var c ScenarioConfig
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return ScenarioConfig{}, fmt.Errorf("%w: decoding config: %v", ErrConfigMalformed, err)
	}
	// A second Decode must see EOF: two values in one file means the
	// caller is confused about framing.
	if err := dec.Decode(&json.RawMessage{}); err != io.EOF {
		return ScenarioConfig{}, fmt.Errorf("%w: trailing data after config", ErrConfigMalformed)
	}
	if c.V != ConfigVersion {
		return ScenarioConfig{}, fmt.Errorf(
			"%w: config version %d not supported (this build speaks v%d)", ErrConfigMalformed, c.V, ConfigVersion)
	}
	return c, nil
}

// ParseScenario decodes a scenario config from bytes and validates it,
// returning the runnable Scenario.
func ParseScenario(data []byte) (Scenario, error) {
	c, err := DecodeScenarioConfig(bytes.NewReader(data))
	if err != nil {
		return Scenario{}, err
	}
	sc := c.Scenario()
	if err := sc.withDefaults().Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// LoadScenario reads, decodes and validates one scenario config file.
func LoadScenario(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("%w: %v", ErrConfigMalformed, err)
	}
	sc, err := ParseScenario(data)
	if err != nil {
		return Scenario{}, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

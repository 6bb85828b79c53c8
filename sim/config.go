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
//   - Every committed corpus file is in canonical form — two-space
//     indented JSON of the version and the Scenario's fields, with a
//     trailing newline (pinned by test) — so config diffs are semantic
//     diffs.
//
// ConfigVersion is 2: "corpus v1" was the Go-constructor library of
// PR 3; v2 is the first scenarios-as-data schema.
const ConfigVersion = 2

// versioned is a config file's top-level object: the schema version
// followed by the keys of Scenario's JSON tags.
type versioned struct {
	V int `json:"v"`
	Scenario
}

// decodeScenario decodes one config under the strict contract: unknown
// fields, trailing data and version mismatches all fail with errors
// wrapping ErrConfigMalformed. Scenario-semantics validation is
// separate (ParseScenario, Scenario.Validate).
func decodeScenario(data []byte) (Scenario, error) {
	var c versioned
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Scenario{}, fmt.Errorf("%w: decoding config: %v", ErrConfigMalformed, err)
	}
	// A second Decode must see EOF: two values in one file means the
	// caller is confused about framing.
	if err := dec.Decode(&json.RawMessage{}); err != io.EOF {
		return Scenario{}, fmt.Errorf("%w: trailing data after config", ErrConfigMalformed)
	}
	if c.V != ConfigVersion {
		return Scenario{}, fmt.Errorf(
			"%w: config version %d not supported (this build speaks v%d)", ErrConfigMalformed, c.V, ConfigVersion)
	}
	return c.Scenario, nil
}

// ParseScenario decodes a scenario config from bytes and validates it,
// returning the runnable Scenario.
func ParseScenario(data []byte) (Scenario, error) {
	sc, err := decodeScenario(data)
	if err != nil {
		return Scenario{}, err
	}
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

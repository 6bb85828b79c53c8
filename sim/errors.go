package sim

import "errors"

// Sentinel errors of the sim package, mirroring the root package's
// taxonomy discipline (see errors.go at the repo root and the reapvet
// errtaxonomy analyzer, which scopes this package): every error sim
// returns wraps one of these, so callers branch with errors.Is instead
// of string matching.
var (
	// ErrUnknownScenario is returned by ScenarioCorpus.Lookup when no
	// scenario carries the requested name.
	ErrUnknownScenario = errors.New("sim: unknown scenario")
	// ErrInvalidScenario wraps every scenario-validation failure: bad
	// fleet shapes, out-of-range rates, malformed populations, regions,
	// churn schedules or storms, and invalid statistics-helper inputs.
	ErrInvalidScenario = errors.New("sim: invalid scenario")
	// ErrConfigMalformed wraps every config-decoding failure: JSON
	// syntax errors, unknown fields, version mismatches and trailing
	// data. A config either matches the schema exactly or fails with
	// this sentinel — the same strict-decode contract as wire/.
	ErrConfigMalformed = errors.New("sim: malformed scenario config")
)

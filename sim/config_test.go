package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// encodeScenario renders a scenario in the corpus's canonical byte
// form: the version and the scenario's keys as two-space indented
// JSON with a trailing newline. The package has no encoder of its own;
// this one defines the form every committed corpus file must be in.
func encodeScenario(t testing.TB, sc Scenario) []byte {
	t.Helper()
	data, err := json.MarshalIndent(versioned{V: ConfigVersion, Scenario: sc}, "", "  ")
	if err != nil {
		t.Fatalf("encoding %s: %v", sc.Name, err)
	}
	return append(data, '\n')
}

// TestCorpusConfigsCanonical requires every committed corpus file to be
// in canonical encoding: decode → encode must reproduce the file
// byte-for-byte, so config diffs are always semantic. -update rewrites
// files into canonical form.
func TestCorpusConfigsCanonical(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(scenarioDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed scenario configs")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := decodeScenario(data)
			if err != nil {
				t.Fatal(err)
			}
			canonical := encodeScenario(t, sc)
			if bytes.Equal(data, canonical) {
				return
			}
			if *update {
				if err := os.WriteFile(path, canonical, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("canonicalized %s", path)
				return
			}
			t.Fatalf("%s is not canonical (run with -update to rewrite):\n file: %s\ncanon: %s",
				path, data, canonical)
		})
	}
}

// TestConfigRoundTrip: decode → encode → decode is the identity on
// every committed config, at both the byte and the struct level.
func TestConfigRoundTrip(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(scenarioDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s1, err := decodeScenario(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		b1 := encodeScenario(t, s1)
		s2, err := decodeScenario(b1)
		if err != nil {
			t.Fatalf("%s: canonical bytes failed to decode: %v", path, err)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("%s: decode→encode→decode changed the scenario:\n s1: %+v\n s2: %+v", path, s1, s2)
		}
		if b2 := encodeScenario(t, s2); !bytes.Equal(b1, b2) {
			t.Fatalf("%s: decode→encode→decode is not byte-stable:\n b1: %s\n b2: %s", path, b1, b2)
		}
	}
}

// TestConfigStrictDecode enumerates the rejection contract: unknown
// fields, version drift, trailing data and syntax errors all fail with
// the ErrConfigMalformed sentinel.
func TestConfigStrictDecode(t *testing.T) {
	valid := `{"v": 2, "name": "x", "devices": 1, "days": 1, "seed": 1, "month": 6, "year": 2016}`
	if _, err := decodeScenario([]byte(valid)); err != nil {
		t.Fatalf("minimal valid config rejected: %v", err)
	}
	cases := map[string]string{
		"unknown field":    `{"v": 2, "name": "x", "devices": 1, "days": 1, "seed": 1, "month": 6, "year": 2016, "turbo": true}`,
		"unknown nested":   `{"v": 2, "name": "x", "devices": 1, "days": 1, "seed": 1, "month": 6, "year": 2016, "storm": {"start_rate": 0.1, "duration_hours": 2, "lightning": 1}}`,
		"missing version":  `{"name": "x", "devices": 1, "days": 1, "seed": 1, "month": 6, "year": 2016}`,
		"old version":      `{"v": 1, "name": "x", "devices": 1, "days": 1, "seed": 1, "month": 6, "year": 2016}`,
		"future version":   `{"v": 3, "name": "x", "devices": 1, "days": 1, "seed": 1, "month": 6, "year": 2016}`,
		"trailing data":    valid + ` {"v": 2}`,
		"trailing garbage": valid + ` x`,
		"syntax error":     `{"v": 2,`,
		"wrong type":       `{"v": 2, "name": "x", "devices": "many", "days": 1, "seed": 1, "month": 6, "year": 2016}`,
		"empty":            ``,
		"array":            `[1, 2, 3]`,

		// The solve-cache keys were removed from the v2 schema; a
		// config still naming them must fail rather than run uncached.
		"removed cache":              `{"v": 2, "name": "x", "devices": 1, "days": 1, "seed": 1, "month": 6, "year": 2016, "cache": true}`,
		"removed cache_size":         `{"v": 2, "name": "x", "devices": 1, "days": 1, "seed": 1, "month": 6, "year": 2016, "cache_size": 64}`,
		"removed cache_resolution_j": `{"v": 2, "name": "x", "devices": 1, "days": 1, "seed": 1, "month": 6, "year": 2016, "cache_resolution_j": 0.001}`,
	}
	for name, input := range cases {
		_, err := decodeScenario([]byte(input))
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !errors.Is(err, ErrConfigMalformed) {
			t.Errorf("%s: error does not wrap ErrConfigMalformed: %v", name, err)
		}
	}
	// ParseScenario layers semantic validation on top of the decode.
	if _, err := ParseScenario([]byte(`{"v": 2, "name": "x", "devices": 0, "days": 1, "seed": 1, "month": 6, "year": 2016}`)); !errors.Is(err, ErrInvalidScenario) {
		t.Errorf("semantically invalid config: got %v, want ErrInvalidScenario", err)
	}
}

// LoadScenario and LoadCorpus are the filesystem counterparts of the
// embedded corpus: same strict decode, same validation.
func TestLoadScenarioAndCorpus(t *testing.T) {
	sc, err := LoadScenario(filepath.Join(scenarioDir, "clear-month.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := mustScenario(t, "clear-month"); !reflect.DeepEqual(sc, want) {
		t.Fatalf("loaded %+v, embedded corpus has %+v", sc, want)
	}
	if _, err := LoadScenario(filepath.Join(t.TempDir(), "missing.json")); !errors.Is(err, ErrConfigMalformed) {
		t.Fatalf("missing file: got %v, want ErrConfigMalformed", err)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"v": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadScenario(bad); !errors.Is(err, ErrConfigMalformed) {
		t.Fatalf("stale-version file: got %v, want ErrConfigMalformed", err)
	}

	disk, err := LoadCorpus(scenarioDir)
	if err != nil {
		t.Fatal(err)
	}
	embedded, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := disk.Names(), embedded.Names(); len(got) != len(want) {
		t.Fatalf("disk corpus has %v, embedded %v", got, want)
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("disk corpus has %v, embedded %v", got, want)
			}
		}
	}
	// Duplicate names across files must be rejected.
	dir := t.TempDir()
	data, err := os.ReadFile(filepath.Join(scenarioDir, "clear-month.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a.json", "b.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadCorpus(dir); !errors.Is(err, ErrInvalidScenario) {
		t.Fatalf("duplicate scenario names: got %v, want ErrInvalidScenario", err)
	}
}

// FuzzScenarioDecode drives the strict decoder with arbitrary bytes: it
// must never panic, and whenever it accepts an input, the canonical
// re-encoding must be decodable and byte-stable (one canonicalization
// reaches the fixpoint).
func FuzzScenarioDecode(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join(scenarioDir, "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"v": 2, "name": "x", "devices": 1, "days": 1, "seed": 1, "month": 6, "year": 2016}`))
	f.Add([]byte(`{"v": 1}`))
	f.Add([]byte(`{"v": 2} {"v": 2}`))
	f.Add([]byte(`{"v": 2, "unknown": []}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		s1, err := decodeScenario(data)
		if err != nil {
			if !errors.Is(err, ErrConfigMalformed) {
				t.Fatalf("decode error outside the taxonomy: %v", err)
			}
			return
		}
		b1 := encodeScenario(t, s1)
		s2, err := decodeScenario(b1)
		if err != nil {
			t.Fatalf("canonical encoding rejected: %v\n%s", err, b1)
		}
		if b2 := encodeScenario(t, s2); !bytes.Equal(b1, b2) {
			t.Fatalf("canonicalization is not a fixpoint:\nb1: %s\nb2: %s", b1, b2)
		}
		// ParseScenario on the same input must classify cleanly too.
		if _, err := ParseScenario(data); err != nil &&
			!errors.Is(err, ErrConfigMalformed) && !errors.Is(err, ErrInvalidScenario) {
			t.Fatalf("ParseScenario error outside the taxonomy: %v", err)
		}
	})
}

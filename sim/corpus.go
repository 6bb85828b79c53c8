package sim

import (
	"embed"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// The committed scenario corpus: every *.json under scenarios/ is a
// canonical-form scenario config, compiled into the binary so reapsim,
// perfbench and the test harness agree on the corpus without touching
// the filesystem. These files are the only definition of each world.
//
//go:embed scenarios/*.json
var scenarioFS embed.FS

// scenarioDir is where the embedded corpus files live in the source
// tree (used by the regeneration test and by tooling resolving corpus
// paths).
const scenarioDir = "scenarios"

// ScenarioCorpus is an immutable, name-indexed set of scenarios loaded
// from config files.
type ScenarioCorpus struct {
	scenarios []Scenario // sorted by name
	byName    map[string]Scenario
}

var (
	corpusOnce sync.Once
	corpusVal  *ScenarioCorpus
	corpusErr  error
)

// Corpus returns the embedded scenario corpus: every scenario config
// committed under sim/scenarios/. The corpus is parsed once and cached;
// the returned value is shared and must be treated as read-only.
func Corpus() (*ScenarioCorpus, error) {
	corpusOnce.Do(func() {
		corpusVal, corpusErr = corpusFromFS(scenarioFS, scenarioDir)
	})
	return corpusVal, corpusErr
}

// LoadCorpus builds a corpus from every *.json file in dir, using the
// same strict decoding and uniqueness rules as the embedded corpus.
func LoadCorpus(dir string) (*ScenarioCorpus, error) {
	return corpusFromFS(os.DirFS(dir), ".")
}

// corpusFromFS parses every *.json under root of fsys into a corpus.
func corpusFromFS(fsys fs.FS, root string) (*ScenarioCorpus, error) {
	paths, err := fs.Glob(fsys, filepath.ToSlash(filepath.Join(root, "*.json")))
	if err != nil {
		return nil, fmt.Errorf("%w: globbing corpus: %v", ErrConfigMalformed, err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%w: no scenario configs found", ErrConfigMalformed)
	}
	sort.Strings(paths)
	c := &ScenarioCorpus{byName: make(map[string]Scenario, len(paths))}
	for _, p := range paths {
		data, err := fs.ReadFile(fsys, p)
		if err != nil {
			return nil, fmt.Errorf("%w: reading %s: %v", ErrConfigMalformed, p, err)
		}
		sc, err := ParseScenario(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if _, dup := c.byName[sc.Name]; dup {
			return nil, fmt.Errorf("%w: %s: duplicate scenario name %q in corpus", ErrInvalidScenario, p, sc.Name)
		}
		c.byName[sc.Name] = sc
		c.scenarios = append(c.scenarios, sc)
	}
	sort.Slice(c.scenarios, func(i, j int) bool { return c.scenarios[i].Name < c.scenarios[j].Name })
	return c, nil
}

// Scenarios returns the corpus scenarios ordered by name. The slice is
// a copy; the Scenario values share no mutable state.
func (c *ScenarioCorpus) Scenarios() []Scenario {
	return append([]Scenario(nil), c.scenarios...)
}

// Names returns the scenario names in order.
func (c *ScenarioCorpus) Names() []string {
	names := make([]string, len(c.scenarios))
	for i, sc := range c.scenarios {
		names[i] = sc.Name
	}
	return names
}

// Lookup returns the named scenario, or an error wrapping
// ErrUnknownScenario naming the corpus contents.
func (c *ScenarioCorpus) Lookup(name string) (Scenario, error) {
	sc, ok := c.byName[name]
	if !ok {
		return Scenario{}, fmt.Errorf("%w: %q (corpus has %v)", ErrUnknownScenario, name, c.Names())
	}
	return sc, nil
}

// Command reapsim runs deterministic fleet scenarios from the sim
// package's corpus: multi-day closed loops of solar harvest, LP
// allocation, activity-modulated execution and fault injection, with
// per-step traces and fleet-level metrics.
//
// Usage:
//
//	reapsim -list
//	reapsim -scenario lockstep
//	reapsim -scenario brownout -devices 8 -days 7 -seed 99 -trace -
//	reapsim -config my-world.json -metrics -
//	reapsim -all -metrics-dir out/
//	reapsim -validate my-world.json other.json
//
// Scenarios come from the embedded corpus (-scenario, -all; every
// committed sim/scenarios/*.json file), from a corpus directory
// (-corpus), or from a single config file (-config). Without overrides
// a scenario runs exactly as its config (and the golden-trace tests)
// defines it, so two invocations print identical traces. -trace writes
// the canonical trace encoding to a file, or to standard output with
// "-"; -metrics writes the summary metrics (distributions, percentiles
// and histograms included) as JSON the same way, and -metrics-dir
// writes one <scenario>.metrics.json per scenario — the artifact the
// scenario-corpus CI job archives.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/sim"
)

func main() {
	log.SetFlags(0)
	list := flag.Bool("list", false, "list the scenario corpus and exit")
	all := flag.Bool("all", false, "run every corpus scenario")
	name := flag.String("scenario", "", "corpus scenario to run (see -list)")
	configPath := flag.String("config", "", "run a single scenario config file instead of a corpus entry")
	corpusDir := flag.String("corpus", "", "load the corpus from this directory instead of the embedded one")
	validate := flag.Bool("validate", false, "validate the config files given as arguments and exit")
	devices := flag.Int("devices", 0, "override the scenario's fleet size")
	days := flag.Int("days", 0, "override the scenario's horizon in days")
	seed := flag.Int64("seed", 0, "override the scenario's seed (0 keeps it)")
	tracePath := flag.String("trace", "", "write the canonical trace here (\"-\" for stdout)")
	metricsPath := flag.String("metrics", "", "write the summary metrics as JSON here (\"-\" for stdout)")
	metricsDir := flag.String("metrics-dir", "", "write per-scenario metrics JSON files into this directory")
	flag.Parse()

	if *validate {
		if flag.NArg() == 0 {
			log.Fatal("reapsim: -validate needs config file arguments")
		}
		failed := false
		for _, path := range flag.Args() {
			if _, err := sim.LoadScenario(path); err != nil {
				log.Printf("reapsim: %v", err)
				failed = true
				continue
			}
			fmt.Printf("%s: ok\n", path)
		}
		if failed {
			os.Exit(1)
		}
		return
	}

	corpus, err := loadCorpus(*corpusDir)
	if err != nil {
		log.Fatal(err)
	}

	switch {
	case *list:
		for _, sc := range corpus.Scenarios() {
			fmt.Printf("%-15s %s (%d devices, %d days, seed %d)\n",
				sc.Name, sc.Description, sc.Devices, sc.Days, sc.Seed)
		}
		return
	case *all:
		if *tracePath != "" || *metricsPath != "" {
			log.Fatal("reapsim: -trace/-metrics need a single scenario; use -metrics-dir with -all")
		}
		for _, sc := range corpus.Scenarios() {
			run(sc, *devices, *days, *seed, "", "", *metricsDir)
			fmt.Println()
		}
		return
	case *configPath != "":
		if *name != "" {
			log.Fatal("reapsim: -config and -scenario are mutually exclusive")
		}
		sc, err := sim.LoadScenario(*configPath)
		if err != nil {
			log.Fatal(err)
		}
		run(sc, *devices, *days, *seed, *tracePath, *metricsPath, *metricsDir)
		return
	case *name == "":
		log.Fatal("reapsim: pick a -scenario (see -list), -config, -all or -validate")
	}
	sc, err := corpus.Lookup(*name)
	if err != nil {
		log.Fatal(err)
	}
	run(sc, *devices, *days, *seed, *tracePath, *metricsPath, *metricsDir)
}

// loadCorpus resolves the scenario source: the embedded corpus by
// default, or a directory of config files.
func loadCorpus(dir string) (*sim.ScenarioCorpus, error) {
	if dir == "" {
		return sim.Corpus()
	}
	return sim.LoadCorpus(dir)
}

func run(sc sim.Scenario, devices, days int, seed int64, tracePath, metricsPath, metricsDir string) {
	if devices > 0 {
		sc.Devices = devices
	}
	if days > 0 {
		sc.Days = days
	}
	if seed != 0 {
		sc.Seed = seed
	}
	res, err := sim.Run(context.Background(), sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== %s: %s\n%s\n", sc.Name, sc.Description, res.Summary)
	if tracePath != "" {
		writeTo(tracePath, func(f *os.File) error { return res.Trace.WriteText(f) })
	}
	if metricsPath != "" {
		writeTo(metricsPath, func(f *os.File) error { return writeMetrics(f, res) })
	}
	if metricsDir != "" {
		if err := os.MkdirAll(metricsDir, 0o755); err != nil {
			log.Fatal(err)
		}
		path := filepath.Join(metricsDir, sc.Name+".metrics.json")
		writeTo(path, func(f *os.File) error { return writeMetrics(f, res) })
	}
}

// writeTo opens path ("-" for stdout) and hands it to write.
func writeTo(path string, write func(*os.File) error) {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		out = f
	}
	if err := write(out); err != nil {
		log.Fatal(err)
	}
}

// writeMetrics emits the per-scenario metrics document: the scenario
// name and seed plus the full Summary, distributions and histograms
// included.
func writeMetrics(f *os.File, res *sim.Result) error {
	doc := struct {
		Scenario string      `json:"scenario"`
		Seed     int64       `json:"seed"`
		Solver   string      `json:"solver"`
		Summary  sim.Summary `json:"summary"`
	}{res.Scenario.Name, res.Scenario.Seed, res.Scenario.Solver, res.Summary}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

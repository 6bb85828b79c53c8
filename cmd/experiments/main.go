// Command experiments regenerates every table and figure of the paper's
// evaluation section and prints them as text reports: Table 2, Figures
// 3–7, the headline claims, the offloading analysis and the design-set
// ablation. Pass -out to also write each report to a file.
//
// Usage:
//
//	experiments [-out dir] [-skip-training]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro"
	"repro/internal/eval"
	"repro/internal/har"
	"repro/internal/synth"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run parses the command-line arguments args and prints every report to
// w; skipped experiments are noted on the log.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	outDir := fs.String("out", "", "directory to write per-experiment reports into")
	asCSV := fs.Bool("csv", false, "also write .csv files next to the .txt reports")
	skipTraining := fs.Bool("skip-training", false,
		"skip Table 2 / Figure 3 (the experiments that train classifiers)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, err := reap.NewConfig()
	if err != nil {
		return err
	}
	type experiment struct {
		name string
		run  func() (interface{ Render() string }, error)
	}
	experiments := []experiment{
		{"table2", func() (interface{ Render() string }, error) { return eval.Table2() }},
		{"figure3", func() (interface{ Render() string }, error) { return eval.Figure3() }},
		{"figure4", func() (interface{ Render() string }, error) { return eval.Figure4() }},
		{"figure5", func() (interface{ Render() string }, error) { return eval.Figure5(cfg, 0.25) }},
		{"figure6", func() (interface{ Render() string }, error) { return eval.Figure6(cfg, 0.25) }},
		{"figure7", func() (interface{ Render() string }, error) { return eval.Figure7(cfg) }},
		{"headline", func() (interface{ Render() string }, error) { return eval.Headline(cfg) }},
		{"offload", func() (interface{ Render() string }, error) { return eval.Offload() }},
		{"ablation", func() (interface{ Render() string }, error) { return eval.Ablation(cfg) }},
		{"strategies", func() (interface{ Render() string }, error) { return eval.Strategies(cfg) }},
		{"quantization", func() (interface{ Render() string }, error) { return eval.Quantization() }},
		{"generalization", func() (interface{ Render() string }, error) {
			ds, err := synth.NewDataset(synth.DefaultCorpusConfig())
			if err != nil {
				return nil, err
			}
			return eval.Generalization(ds, har.PaperFive()[0])
		}},
		{"extended", func() (interface{ Render() string }, error) { return eval.Extended() }},
		{"confusion-dp1", func() (interface{ Render() string }, error) {
			ds, err := synth.NewDataset(synth.DefaultCorpusConfig())
			if err != nil {
				return nil, err
			}
			return eval.Confusion(ds, har.PaperFive()[0])
		}},
		{"confusion-dp5", func() (interface{ Render() string }, error) {
			ds, err := synth.NewDataset(synth.DefaultCorpusConfig())
			if err != nil {
				return nil, err
			}
			return eval.Confusion(ds, har.PaperFive()[4])
		}},
		{"multiyear", func() (interface{ Render() string }, error) { return eval.MultiYear(cfg) }},
		{"switching", func() (interface{ Render() string }, error) { return eval.Switching(cfg) }},
		{"placement", func() (interface{ Render() string }, error) { return eval.Placement(cfg) }},
		{"seasonal", func() (interface{ Render() string }, error) { return eval.Seasonal(cfg, 2016) }},
		{"storage", func() (interface{ Render() string }, error) { return eval.Storage(cfg) }},
		{"alphagrid", func() (interface{ Render() string }, error) { return eval.AlphaGrid(cfg) }},
		{"tilt", func() (interface{ Render() string }, error) { return eval.Tilt(cfg) }},
		{"robustness", func() (interface{ Render() string }, error) {
			ds, err := synth.NewDataset(synth.DefaultCorpusConfig())
			if err != nil {
				return nil, err
			}
			return eval.Robustness(ds, 17)
		}},
		{"dayinlife", func() (interface{ Render() string }, error) {
			ds, err := synth.NewDataset(synth.DefaultCorpusConfig())
			if err != nil {
				return nil, err
			}
			points, err := har.Characterize(ds, har.PaperFive())
			if err != nil {
				return nil, err
			}
			dpCfg := har.CoreConfig(points, 1)
			models := make([]*har.Model, len(points))
			for i := range points {
				models[i] = points[i].Model
			}
			day, err := eval.SolarDayBudget(5)
			if err != nil {
				return nil, err
			}
			return eval.DayInLife(dpCfg, models, ds.Users[0], day, 33)
		}},
	}

	for _, ex := range experiments {
		trains := map[string]bool{
			"table2": true, "figure3": true, "quantization": true,
			"generalization": true, "extended": true,
			"confusion-dp1": true, "confusion-dp5": true, "dayinlife": true,
			"robustness": true,
		}
		if *skipTraining && trains[ex.name] {
			log.Printf("== %s skipped (-skip-training)", ex.name)
			continue
		}
		res, err := ex.run()
		if err != nil {
			return fmt.Errorf("%s: %w", ex.name, err)
		}
		report := res.Render()
		if _, err := fmt.Fprintf(w, "== %s\n%s\n", ex.name, report); err != nil {
			return err
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*outDir, ex.name+".txt")
			if err := os.WriteFile(path, []byte(strings.TrimRight(report, "\n")+"\n"), 0o644); err != nil {
				return err
			}
			if *asCSV {
				csvOut, err := eval.RenderCSV(report)
				if err != nil {
					return fmt.Errorf("%s: csv: %w", ex.name, err)
				}
				csvPath := filepath.Join(*outDir, ex.name+".csv")
				if err := os.WriteFile(csvPath, []byte(csvOut), 0o644); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

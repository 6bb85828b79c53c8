// Command experiments regenerates every table and figure of the paper's
// evaluation section and prints them as text reports: Table 2, Figures
// 3–7, the headline claims, the offloading analysis and the design-set
// ablation. Pass -out to also write each report to a file.
//
// Usage:
//
//	experiments [-out dir [-csv]] [-skip-training]
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
	"repro/internal/solar"
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
		"skip the experiments that read trained classifiers (Table 2, Figure 3, ...)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, err := reap.NewConfig()
	if err != nil {
		return err
	}
	// Figure 7, the ablation, the strategies, the storage comparison and
	// the day in the life all replay the paper's September 2015 month.
	sept, err := solar.September2015()
	if err != nil {
		return err
	}
	type report interface{ Render() string }
	// An experiment either runs on the configuration and the month alone
	// (run), or reads the trained design points too (train).
	type experiment struct {
		name  string
		run   func() (report, error)
		train func(trained) (report, error)
	}
	experiments := []experiment{
		{name: "table2", train: func(c trained) (report, error) { return eval.Table2(c.points[:5]), nil }},
		{name: "figure3", train: func(c trained) (report, error) { return eval.Figure3(c.points[:24]), nil }},
		{name: "figure4", run: func() (report, error) { return eval.Figure4() }},
		{name: "figure5", run: func() (report, error) { return eval.Figure5(cfg, 0.25) }},
		{name: "figure6", run: func() (report, error) { return eval.Figure6(cfg, 0.25) }},
		{name: "figure7", run: func() (report, error) {
			return eval.Figure7(cfg, sept, []float64{0.5, 1, 2, 4, 8})
		}},
		{name: "headline", run: func() (report, error) { return eval.Headline(cfg) }},
		{name: "offload", run: func() (report, error) { return eval.Offload() }},
		{name: "ablation", run: func() (report, error) { return eval.Ablation(cfg, sept.Hours) }},
		{name: "strategies", run: func() (report, error) { return eval.Strategies(cfg, sept.Hours) }},
		{name: "quantization", train: func(c trained) (report, error) {
			return eval.Quantization(c.ds, c.points[:5])
		}},
		{name: "generalization", train: func(c trained) (report, error) {
			return eval.Generalization(c.ds, c.points[0].Model)
		}},
		{name: "extended", train: func(c trained) (report, error) {
			return eval.Extended(append(c.points[:5:5], c.points[24:]...)), nil
		}},
		{name: "confusion-dp1", train: func(c trained) (report, error) {
			return eval.Confusion(c.ds, c.points[0].Model)
		}},
		{name: "confusion-dp5", train: func(c trained) (report, error) {
			return eval.Confusion(c.ds, c.points[4].Model)
		}},
		{name: "multiyear", run: func() (report, error) { return eval.MultiYear(cfg) }},
		{name: "switching", run: func() (report, error) { return eval.Switching(cfg) }},
		{name: "placement", run: func() (report, error) { return eval.Placement(cfg) }},
		{name: "seasonal", run: func() (report, error) { return eval.Seasonal(cfg, 2016) }},
		{name: "storage", run: func() (report, error) { return eval.Storage(cfg, sept.Hours) }},
		{name: "alphagrid", run: func() (report, error) { return eval.AlphaGrid(cfg) }},
		{name: "tilt", run: func() (report, error) { return eval.Tilt(cfg) }},
		{name: "robustness", train: func(c trained) (report, error) {
			return eval.Robustness(c.ds, c.points[:5], 17)
		}},
		{name: "dayinlife", train: func(c trained) (report, error) {
			five := c.points[:5]
			models := make([]*har.Model, len(five))
			for i := range five {
				models[i] = five[i].Model
			}
			day, err := sept.Day(5)
			if err != nil {
				return nil, err
			}
			return eval.DayInLife(har.CoreConfig(five, 1), models, c.ds.Users[0], day, 33)
		}},
	}

	// One corpus, and one characterization of all 31 design points on
	// it, serve every train experiment.
	var c trained
	if !*skipTraining {
		if c.ds, err = synth.NewDataset(synth.DefaultCorpusConfig()); err != nil {
			return err
		}
		if c.points, err = har.Characterize(c.ds, append(har.AllSpecs(), har.ExtendedSpecs()...)); err != nil {
			return err
		}
	}
	for _, ex := range experiments {
		var res report
		switch {
		case ex.run != nil:
			res, err = ex.run()
		case *skipTraining:
			log.Printf("== %s skipped (-skip-training)", ex.name)
			continue
		default:
			res, err = ex.train(c)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", ex.name, err)
		}
		text := res.Render()
		if _, err := fmt.Fprintf(w, "== %s\n%s\n", ex.name, text); err != nil {
			return err
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*outDir, ex.name+".txt")
			if err := os.WriteFile(path, []byte(strings.TrimRight(text, "\n")+"\n"), 0o644); err != nil {
				return err
			}
			if *asCSV {
				csvOut, err := eval.RenderCSV(text)
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

// trained is what the experiments that read trained classifiers share:
// the default corpus and its characterization of every design point.
type trained struct {
	ds *synth.Dataset
	// points lists har.AllSpecs and then har.ExtendedSpecs: points[:5]
	// are the published five, points[:24] Figure 3's design space and
	// points[24:] the extension variants.
	points []har.Characterized
}

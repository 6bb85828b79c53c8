// Command reapvet runs the repo's project-specific analyzer suite over
// the given packages — the mechanical enforcement of the invariants
// PRs 1–5 established by convention:
//
//	errtaxonomy  errors crossing the public boundary of repro,
//	             internal/core and internal/lp wrap a sentinel via %w
//	ctxflow      library code never mints root contexts; context
//	             parameters are passed through, not dropped
//	hotalloc     //reap:hotpath functions contain no allocating
//	             constructs
//	floatcmp     no raw == / != on floats outside internal/fpx
//	recoverboundary
//	             no bare go statements in internal/service — daemon
//	             goroutines start via resilience.Go recover boundaries
//
// Usage:
//
//	go run ./cmd/reapvet ./...
//	go run ./cmd/reapvet -only floatcmp,ctxflow ./sim/...
//
// Diagnostics print as file:line:col: analyzer: message, one per line,
// and any finding makes the exit status 1 — the CI lint job runs the
// suite exactly this way. Intentional exceptions are suppressed in
// source with `//lint:reapvet <analyzers> -- reason`; a suppression
// without a reason is itself a finding.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/errtaxonomy"
	"repro/internal/analysis/floatcmp"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/load"
	"repro/internal/analysis/recoverboundary"
)

var suite = []*analysis.Analyzer{
	errtaxonomy.Analyzer,
	ctxflow.Analyzer,
	hotalloc.Analyzer,
	floatcmp.Analyzer,
	recoverboundary.Analyzer,
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "print the analyzers and exit")
	flag.Usage = usage
	flag.Parse()

	if *list {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		usage()
		os.Exit(2)
	}
	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reapvet:", err)
		os.Exit(2)
	}
	pkgs, err := load.Packages(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reapvet:", err)
		os.Exit(2)
	}
	diags, err := analysis.Run(analyzers, pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reapvet:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "reapvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return suite, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range suite {
		byName[a.Name] = a
	}
	var selected []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (run with -list)", name)
		}
		selected = append(selected, a)
	}
	return selected, nil
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: reapvet [-only a,b] packages...\n\nAnalyzers:\n")
	for _, a := range suite {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
}

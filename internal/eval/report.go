// Package eval regenerates every table and figure of the paper's
// evaluation (Table 2, Figures 3–7, the headline claims of the abstract,
// the offloading analysis, and a design-space ablation). Each experiment
// returns a structured result with a Render method that prints the same
// rows/series the paper reports, so the benchmark harness and the
// experiments command share one implementation.
//
// Two data sources exist for the design points:
//
//   - the paper's measured Table 2 numbers (core.PaperDesignPoints), which
//     reproduce the optimizer-level figures (5, 6, 7) exactly as published;
//   - the from-scratch simulated characterization (har.Characterize), which
//     regenerates Table 2 and Figure 3 themselves.
//
// cmd/experiments prints both views as its reports; its -skip-training
// output, which leaves out the two that train classifiers, is pinned by
// cmd/experiments/testdata/skip-training.golden.
package eval

import (
	"fmt"
	"strings"
)

// table is a tiny column-aligned text renderer (stdlib-only).
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

package eval

import (
	"encoding/csv"
	"reflect"
	"strings"
	"testing"
)

func TestSplitAligned(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"a  b  c", []string{"a", "b", "c"}},
		{"one two  three four", []string{"one two", "three four"}},
		{"x", []string{"x"}},
		{"cell    padded   ", []string{"cell", "padded"}},
		{"lead  9.93  region-2  1.00", []string{"lead", "9.93", "region-2", "1.00"}},
	}
	for _, tc := range cases {
		got := splitAligned(tc.in)
		if len(got) != len(tc.want) {
			t.Fatalf("split(%q) = %v, want %v", tc.in, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("split(%q) = %v, want %v", tc.in, got, tc.want)
			}
		}
	}
}

func TestRenderCSVOnRealExperiments(t *testing.T) {
	// Every experiment's Render output must convert cleanly: same number
	// of data rows, title preserved as a comment.
	fig4, err := Figure4()
	if err != nil {
		t.Fatal(err)
	}
	out, err := RenderCSV(fig4.Render())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if !strings.HasPrefix(lines[0], "# Figure 4") {
		t.Fatalf("missing title comment: %q", lines[0])
	}
	// Header + 5 components + total = 7 CSV rows.
	csvRows := 0
	for _, l := range lines {
		if !strings.HasPrefix(l, "#") {
			csvRows++
		}
	}
	if csvRows != 7 {
		t.Fatalf("%d CSV rows, want 7:\n%s", csvRows, out)
	}
	if !strings.Contains(out, "accelerometer,") {
		t.Fatalf("component column not first:\n%s", out)
	}

	// A sweep experiment round-trips with consistent column counts.
	fig6, err := Figure6(paperCfg(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	out6, err := RenderCSV(fig6.Render())
	if err != nil {
		t.Fatal(err)
	}
	var width int
	for _, l := range strings.Split(strings.TrimRight(out6, "\n"), "\n") {
		if strings.HasPrefix(l, "#") {
			continue
		}
		n := len(strings.Split(l, ","))
		if width == 0 {
			width = n
		} else if n != width {
			t.Fatalf("ragged CSV: %d vs %d columns in %q", n, width, l)
		}
	}
	if width != 7 { // budget, REAP J, 5 DP columns
		t.Fatalf("figure 6 CSV width %d, want 7", width)
	}

	// Empty cells keep their columns: Figure 3 leaves pareto (a middle
	// cell) and published (the last) empty, Extended leaves pareto empty.
	fig3 := &Figure3Result{Points: []Figure3Point{
		{Name: "DP1", EnergyMJ: 4.48, AccuracyPct: 94, OnFront: true, Published: true},
		{Name: "DP2", EnergyMJ: 3.1, AccuracyPct: 93, Published: true},
		{Name: "xyz-75", EnergyMJ: 3.9, AccuracyPct: 92},
	}}
	assertCSV(t, fig3.Render(), [][]string{
		{"name", "energy/act(mJ)", "accuracy(%)", "pareto", "published"},
		{"DP1", "4.48", "94.0", "*", "DP"},
		{"DP2", "3.10", "93.0", "", "DP"},
		{"xyz-75", "3.90", "92.0", "", ""},
	})
	ext := &ExtendedResult{Rows: []ExtendedRow{
		{Name: "DP1", AccuracyPct: 94, EnergyMJ: 4.6, PowerMW: 2.87},
		{Name: "DP5-gz6", AccuracyPct: 74.4, EnergyMJ: 1.62, PowerMW: 1.01, OnFront: true, Extension: true},
	}}
	assertCSV(t, ext.Render(), [][]string{
		{"name", "acc%", "E/act(mJ)", "power(mW)", "pareto", "kind"},
		{"DP1", "94.0", "4.60", "2.87", "", "paper"},
		{"DP5-gz6", "74.4", "1.62", "1.01", "*", "extension"},
	})
}

// assertCSV converts rendered and requires its records, comment lines
// aside, to be want: every row as wide as the header, each cell in its
// column.
func assertCSV(t *testing.T, rendered string, want [][]string) {
	t.Helper()
	out, err := RenderCSV(rendered)
	if err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(strings.NewReader(out))
	r.Comment = '#'
	got, err := r.ReadAll() // FieldsPerRecord 0: every row as wide as the first
	if err != nil {
		t.Fatalf("%v in:\n%s", err, out)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("records %q, want %q; CSV:\n%s", got, want, out)
	}
}

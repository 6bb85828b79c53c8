package eval

import "repro/internal/har"

// ExtendedRow is one design point of the extended space (published five +
// int8-quantized five + partial-spectrum Goertzel variants).
type ExtendedRow struct {
	Name        string
	AccuracyPct float64
	EnergyMJ    float64
	PowerMW     float64
	OnFront     bool
	Extension   bool
}

// ExtendedResult is the extended-design-space experiment: do the two new
// knobs (classifier precision, spectrum width) push the Pareto front?
type ExtendedResult struct {
	Rows []ExtendedRow
}

// Extended marks the Pareto front of the published five plus the
// extension variants (har.PaperFive then har.ExtendedSpecs,
// characterized).
func Extended(points []har.Characterized) *ExtendedResult {
	front := har.ParetoFront(points)
	onFront := make(map[string]bool, len(front))
	for _, f := range front {
		onFront[f.Spec.Name] = true
	}
	base := map[string]bool{"DP1": true, "DP2": true, "DP3": true, "DP4": true, "DP5": true}
	res := &ExtendedResult{}
	for _, p := range points {
		res.Rows = append(res.Rows, ExtendedRow{
			Name:        p.Spec.Name,
			AccuracyPct: 100 * p.Accuracy,
			EnergyMJ:    1e3 * p.EnergyPerActivity(),
			PowerMW:     1e3 * p.Power(),
			OnFront:     onFront[p.Spec.Name],
			Extension:   !base[p.Spec.Name],
		})
	}
	return res
}

// Render prints the extended scatter.
func (r *ExtendedResult) Render() string {
	t := &table{header: []string{"name", "acc%", "E/act(mJ)", "power(mW)", "pareto", "kind"}}
	for _, row := range r.Rows {
		mark, kind := "", "paper"
		if row.OnFront {
			mark = "*"
		}
		if row.Extension {
			kind = "extension"
		}
		t.add(row.Name, f1(row.AccuracyPct), f2(row.EnergyMJ), f2(row.PowerMW), mark, kind)
	}
	return "Extended design space: precision and spectrum-width knobs (* = Pareto front)\n" +
		t.String()
}

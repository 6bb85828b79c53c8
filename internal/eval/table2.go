package eval

import (
	"fmt"

	"repro/internal/har"
)

// Table2Row is one characterized design point, mirroring the columns of
// Table 2 in the paper.
type Table2Row struct {
	Name          string
	Description   string
	AccuracyPct   float64
	AccelFeatMs   float64
	StretchFeatMs float64
	NNMs          float64
	TotalMs       float64
	MCUEnergyMJ   float64
	SensorMJ      float64
	EnergyMJ      float64
	PowerMW       float64
}

// Table2Result regenerates Table 2 from the synthetic corpus and the
// component energy model.
type Table2Result struct {
	Rows []Table2Row
	// PaperAccuracyPct are the published accuracies for side-by-side
	// comparison: 94, 93, 92, 90, 76.
	PaperAccuracyPct []float64
}

// Table2 prices the five Pareto design points, characterized in
// har.PaperFive order, with the calibrated energy model.
func Table2(five []har.Characterized) *Table2Result {
	res := &Table2Result{PaperAccuracyPct: []float64{94, 93, 92, 90, 76}}
	for _, p := range five {
		b := p.Breakdown
		res.Rows = append(res.Rows, Table2Row{
			Name: p.Spec.Name,
			Description: fmt.Sprintf("axes=%s sense=%.0f%% accel=%v stretch=%v",
				p.Spec.Features.Axes, 100*p.Spec.Features.SensingFraction,
				p.Spec.Features.AccelFeat, p.Spec.Features.StretchFeat),
			AccuracyPct:   100 * p.Accuracy,
			AccelFeatMs:   1e3 * b.TimeAccelFeatures,
			StretchFeatMs: 1e3 * b.TimeStretchFeatures,
			NNMs:          1e3 * b.TimeNN,
			TotalMs:       1e3 * b.TimeTotal,
			MCUEnergyMJ:   1e3 * b.MCUEnergy(),
			SensorMJ:      1e3 * b.SensorEnergy(),
			EnergyMJ:      1e3 * b.Total(),
			PowerMW:       1e3 * b.Power(),
		})
	}
	return res
}

// Render prints the table in the paper's column order.
func (r *Table2Result) Render() string {
	t := &table{header: []string{
		"DP", "acc%", "paper%", "accel(ms)", "stretch(ms)", "nn(ms)",
		"total(ms)", "mcu(mJ)", "sensor(mJ)", "energy(mJ)", "power(mW)",
	}}
	for i, row := range r.Rows {
		paper := ""
		if i < len(r.PaperAccuracyPct) {
			paper = f1(r.PaperAccuracyPct[i])
		}
		t.add(row.Name, f1(row.AccuracyPct), paper,
			f2(row.AccelFeatMs), f2(row.StretchFeatMs), f2(row.NNMs),
			f2(row.TotalMs), f2(row.MCUEnergyMJ), f2(row.SensorMJ),
			f2(row.EnergyMJ), f2(row.PowerMW))
	}
	return "Table 2: design point characterization (simulated corpus + component energy model)\n" + t.String()
}

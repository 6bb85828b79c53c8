package eval

import (
	"repro/internal/energy"
	"repro/internal/har"
	"repro/internal/nn"
	"repro/internal/synth"
)

// QuantizationRow compares a design point's float32-class classifier with
// its int8 post-training quantization: the accuracy cost and the energy
// saving of native 8-bit MACs. This extends the paper's classifier-
// structure knob (Figure 2) with a precision knob.
type QuantizationRow struct {
	Name           string
	FloatAccPct    float64
	Int8AccPct     float64
	FloatEnergyMJ  float64
	Int8EnergyMJ   float64
	EnergySavedPct float64
}

// QuantizationResult is the precision-knob experiment.
type QuantizationResult struct {
	Rows []QuantizationRow
}

// Quantization quantizes the classifier of each of the five published
// design points, characterized on ds, to int8, re-evaluates it on ds's
// test split and reprices the design point with native-MAC inference.
func Quantization(ds *synth.Dataset, five []har.Characterized) (*QuantizationResult, error) {
	res := &QuantizationResult{}
	for _, p := range five {
		q, err := nn.Quantize(p.Model.Net)
		if err != nil {
			return nil, err
		}
		// Re-evaluate on the test split through the same normalizer.
		var samples []nn.Sample
		for _, i := range ds.Test {
			x, err := p.Spec.Features.Extract(ds.Windows[i])
			if err != nil {
				return nil, err
			}
			samples = append(samples, nn.Sample{
				X:     p.Model.Normalizer.Apply(x),
				Label: int(ds.Windows[i].Activity),
			})
		}
		int8Acc := nn.QuantizedAccuracy(q, samples)

		profile := p.Spec.EnergyProfile()
		profile.QuantizedNN = true
		qBreakdown, err := energy.Activity(profile)
		if err != nil {
			return nil, err
		}
		floatE := p.Breakdown.Total()
		int8E := qBreakdown.Total()
		res.Rows = append(res.Rows, QuantizationRow{
			Name:           p.Spec.Name,
			FloatAccPct:    100 * p.Accuracy,
			Int8AccPct:     100 * int8Acc,
			FloatEnergyMJ:  1e3 * floatE,
			Int8EnergyMJ:   1e3 * int8E,
			EnergySavedPct: 100 * (floatE - int8E) / floatE,
		})
	}
	return res, nil
}

// Render prints the precision-knob grid.
func (r *QuantizationResult) Render() string {
	t := &table{header: []string{"DP", "float acc%", "int8 acc%", "float mJ", "int8 mJ", "saved%"}}
	for _, row := range r.Rows {
		t.add(row.Name, f1(row.FloatAccPct), f1(row.Int8AccPct),
			f2(row.FloatEnergyMJ), f2(row.Int8EnergyMJ), f1(row.EnergySavedPct))
	}
	return "Quantization extension: int8 classifiers as an additional design-point knob\n" + t.String()
}

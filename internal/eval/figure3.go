package eval

import (
	"repro/internal/har"
	"repro/internal/synth"
)

// Figure3Point is one design point in the energy-accuracy scatter.
type Figure3Point struct {
	Name        string
	EnergyMJ    float64
	AccuracyPct float64
	OnFront     bool
	Published   bool // one of the paper's DP1..DP5
}

// Figure3Result is the full 24-point design-space scatter with its Pareto
// front, the content of Figure 3 in the paper.
type Figure3Result struct {
	Points []Figure3Point
}

// Figure3 characterizes the full 24-point design space on a fresh corpus.
func Figure3() (*Figure3Result, error) {
	ds, err := synth.NewDataset(synth.DefaultCorpusConfig())
	if err != nil {
		return nil, err
	}
	return Figure3On(ds)
}

// Figure3On is Figure3 against a caller-provided corpus.
func Figure3On(ds *synth.Dataset) (*Figure3Result, error) {
	points, err := har.Characterize(ds, har.AllSpecs())
	if err != nil {
		return nil, err
	}
	front := har.ParetoFront(points)
	onFront := make(map[string]bool, len(front))
	for _, f := range front {
		onFront[f.Spec.Name] = true
	}
	published := map[string]bool{"DP1": true, "DP2": true, "DP3": true, "DP4": true, "DP5": true}
	res := &Figure3Result{}
	for _, p := range points {
		res.Points = append(res.Points, Figure3Point{
			Name:        p.Spec.Name,
			EnergyMJ:    1e3 * p.EnergyPerActivity(),
			AccuracyPct: 100 * p.Accuracy,
			OnFront:     onFront[p.Spec.Name],
			Published:   published[p.Spec.Name],
		})
	}
	return res, nil
}

// Render prints the scatter as (energy, accuracy) rows with front markers.
func (r *Figure3Result) Render() string {
	t := &table{header: []string{"name", "energy/act(mJ)", "accuracy(%)", "pareto", "published"}}
	for _, p := range r.Points {
		mark, pub := "", ""
		if p.OnFront {
			mark = "*"
		}
		if p.Published {
			pub = "DP"
		}
		t.add(p.Name, f2(p.EnergyMJ), f1(p.AccuracyPct), mark, pub)
	}
	return "Figure 3: energy-accuracy trade-off of the 24 design points (* = Pareto front)\n" + t.String()
}

package eval

import (
	"fmt"

	"repro/internal/har"
	"repro/internal/synth"
)

// ConfusionResult reports where a design point's errors live: the class
// confusion matrix on the test split. It substantiates the calibration
// story behind Table 2 — the stretch-only DP5 must confuse the static
// postures (sit/stand/lie/drive) while keeping the dynamic classes, and
// the reduced-sensing points must lose transitions.
type ConfusionResult struct {
	Spec har.DesignPointSpec
	// Matrix[actual][predicted] holds test-split counts.
	Matrix [][]int
	// Accuracy is the overall test accuracy.
	Accuracy float64
}

// Confusion tabulates the test-split confusion of a model trained on ds.
func Confusion(ds *synth.Dataset, model *har.Model) (*ConfusionResult, error) {
	matrix := make([][]int, synth.NumActivities)
	for i := range matrix {
		matrix[i] = make([]int, synth.NumActivities)
	}
	correct := 0
	for _, i := range ds.Test {
		w := ds.Windows[i]
		pred, err := model.Classify(w)
		if err != nil {
			return nil, err
		}
		matrix[int(w.Activity)][int(pred)]++
		if pred == w.Activity {
			correct++
		}
	}
	return &ConfusionResult{
		Spec:     model.Spec,
		Matrix:   matrix,
		Accuracy: float64(correct) / float64(len(ds.Test)),
	}, nil
}

// ClassRecall returns the per-class recall (diagonal over row sum); rows
// with no test samples report 0.
func (r *ConfusionResult) ClassRecall(a synth.Activity) float64 {
	row := r.Matrix[int(a)]
	total := 0
	for _, v := range row {
		total += v
	}
	if total == 0 {
		return 0
	}
	return float64(row[int(a)]) / float64(total)
}

// Render prints the matrix with class names.
func (r *ConfusionResult) Render() string {
	t := &table{header: []string{"actual\\pred"}}
	for _, a := range synth.Activities() {
		t.header = append(t.header, a.String())
	}
	t.header = append(t.header, "recall%")
	for _, a := range synth.Activities() {
		row := []string{a.String()}
		for _, p := range synth.Activities() {
			row = append(row, fmt.Sprintf("%d", r.Matrix[int(a)][int(p)]))
		}
		row = append(row, f1(100*r.ClassRecall(a)))
		t.add(row...)
	}
	return fmt.Sprintf("Confusion matrix (%s, test split, accuracy %.1f%%)\n",
		r.Spec.Name, 100*r.Accuracy) + t.String()
}

package eval

import (
	"fmt"
	"sort"

	"repro/internal/har"
	"repro/internal/synth"
)

// GeneralizationResult quantifies the paper's remark that "recognition
// accuracy is a strong function of the users": the per-user accuracy
// spread under the paper's within-corpus split, and the leave-one-user-out
// accuracy, which measures deployment to an unseen subject.
type GeneralizationResult struct {
	Spec har.DesignPointSpec
	// WithinSplit is the paper-style 60/20/20 test accuracy.
	WithinSplit float64
	// PerUser is the within-split accuracy per subject, keyed by ID.
	PerUser map[int]float64
	// PerUserMin and PerUserMax bound the spread.
	PerUserMin, PerUserMax float64
	// LOUO is the leave-one-user-out result.
	LOUO *har.LOUOResult
}

// Generalization evaluates a design point both ways on ds: the per-user
// spread of its model, trained on ds, and leave-one-user-out retraining.
func Generalization(ds *synth.Dataset, model *har.Model) (*GeneralizationResult, error) {
	perUser, err := har.PerUserAccuracy(ds, model, ds.Test)
	if err != nil {
		return nil, err
	}
	louo, err := har.LeaveOneUserOut(ds, model.Spec)
	if err != nil {
		return nil, err
	}
	res := &GeneralizationResult{
		Spec:        model.Spec,
		WithinSplit: model.TestAcc,
		PerUser:     perUser,
		PerUserMin:  1,
		LOUO:        louo,
	}
	for _, a := range perUser {
		if a < res.PerUserMin {
			res.PerUserMin = a
		}
		if a > res.PerUserMax {
			res.PerUserMax = a
		}
	}
	return res, nil
}

// Render prints the generalization report.
func (r *GeneralizationResult) Render() string {
	t := &table{header: []string{"user", "within-split acc%", "LOUO acc%"}}
	var users []int
	for u := range r.PerUser {
		users = append(users, u)
	}
	sort.Ints(users)
	for _, u := range users {
		louo := "-"
		if v, ok := r.LOUO.PerUser[u]; ok {
			louo = f1(100 * v)
		}
		t.add(fmt.Sprintf("u%d", u), f1(100*r.PerUser[u]), louo)
	}
	t.add("mean", f1(100*r.WithinSplit), f1(100*r.LOUO.Mean))
	return fmt.Sprintf(
		"Generalization (%s): accuracy is a strong function of the users (paper §1)\n",
		r.Spec.Name) + t.String()
}

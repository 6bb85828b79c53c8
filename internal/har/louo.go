package har

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/nn"
	"repro/internal/synth"
)

// PerUserAccuracy evaluates a trained model separately on each subject's
// share of the given index set, quantifying the paper's observation that
// "recognition accuracy is a strong function of the users". The returned
// map is keyed by user ID; users with no windows in the set are absent.
func PerUserAccuracy(ds *synth.Dataset, m *Model, indices []int) (map[int]float64, error) {
	correct := make(map[int]int)
	total := make(map[int]int)
	for _, i := range indices {
		w := ds.Windows[i]
		pred, err := m.Classify(w)
		if err != nil {
			return nil, err
		}
		total[w.User]++
		if pred == w.Activity {
			correct[w.User]++
		}
	}
	out := make(map[int]float64, len(total))
	for u, n := range total {
		out[u] = float64(correct[u]) / float64(n)
	}
	return out, nil
}

// LOUOResult is the outcome of a leave-one-user-out evaluation: the
// within-corpus split of the paper mixes every subject into training,
// which flatters accuracy; LOUO measures how a design point generalizes
// to a subject it has never seen — the deployment-relevant number.
type LOUOResult struct {
	Spec DesignPointSpec
	// PerUser[u] is the accuracy on user u when trained on everyone else.
	PerUser map[int]float64
	// Mean is the unweighted mean across users.
	Mean float64
	// Min and Max bound the per-user spread.
	Min, Max float64
}

// LeaveOneUserOut trains the spec once per subject, holding that subject
// out entirely, and evaluates on the held-out subject's windows.
func LeaveOneUserOut(ds *synth.Dataset, spec DesignPointSpec) (*LOUOResult, error) {
	if err := spec.Features.Validate(); err != nil {
		return nil, err
	}
	byUser := make(map[int][]int)
	for i, w := range ds.Windows {
		byUser[w.User] = append(byUser[w.User], i)
	}
	if len(byUser) < 2 {
		return nil, fmt.Errorf("har: LOUO needs at least 2 users, corpus has %d", len(byUser))
	}
	var users []int
	for u := range byUser {
		users = append(users, u)
	}
	sort.Ints(users)

	res := &LOUOResult{Spec: spec, PerUser: make(map[int]float64), Min: 1, Max: 0}
	var sum float64
	for _, holdOut := range users {
		var trainSamples, testSamples []nn.Sample
		var trainRows [][]float64
		var trainLabels []int
		// Users in sorted order: the training set's order steers the
		// seeded SGD, so ranging over the map would change the result
		// from run to run.
		for _, u := range users {
			for _, i := range byUser[u] {
				x, err := spec.Features.Extract(ds.Windows[i])
				if err != nil {
					return nil, err
				}
				if u == holdOut {
					testSamples = append(testSamples, nn.Sample{X: x, Label: int(ds.Windows[i].Activity)})
				} else {
					trainRows = append(trainRows, x)
					trainLabels = append(trainLabels, int(ds.Windows[i].Activity))
				}
			}
		}
		norm := FitNormalizer(trainRows)
		for i := range trainRows {
			trainSamples = append(trainSamples, nn.Sample{
				X: norm.Apply(trainRows[i]), Label: trainLabels[i],
			})
		}
		for i := range testSamples {
			testSamples[i].X = norm.Apply(testSamples[i].X)
		}

		cfg := TrainSpec()
		net, err := nn.New(spec.NNSizes(), nn.ReLU, nn.Softmax, rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			return nil, err
		}
		if _, err := nn.Train(net, trainSamples, nil, cfg); err != nil {
			return nil, err
		}
		acc := nn.Accuracy(net, testSamples)
		res.PerUser[holdOut] = acc
		sum += acc
		if acc < res.Min {
			res.Min = acc
		}
		if acc > res.Max {
			res.Max = acc
		}
	}
	res.Mean = sum / float64(len(users))
	return res, nil
}

package har

import (
	"reflect"
	"testing"

	"repro/internal/synth"
)

func louoCorpus(t *testing.T) *synth.Dataset {
	t.Helper()
	ds, err := synth.NewDataset(synth.CorpusConfig{NumUsers: 4, TotalWindows: 560, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestPerUserAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	ds := louoCorpus(t)
	model, err := TrainModel(ds, PaperFive()[0])
	if err != nil {
		t.Fatal(err)
	}
	per, err := PerUserAccuracy(ds, model, ds.Test)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 4 {
		t.Fatalf("%d users in per-user report, want 4", len(per))
	}
	for u, acc := range per {
		if acc < 0 || acc > 1 {
			t.Errorf("user %d accuracy %v", u, acc)
		}
	}
	// Empty index set: empty map.
	empty, err := PerUserAccuracy(ds, model, nil)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty set: %v %v", empty, err)
	}
}

func TestLeaveOneUserOut(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	ds := louoCorpus(t)
	res, err := LeaveOneUserOut(ds, PaperFive()[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerUser) != 4 {
		t.Fatalf("%d held-out users, want 4", len(res.PerUser))
	}
	if res.Min > res.Mean || res.Mean > res.Max {
		t.Fatalf("min/mean/max inconsistent: %v %v %v", res.Min, res.Mean, res.Max)
	}
	// Unseen-user accuracy must still be far above chance (1/7) but is
	// expected to trail the within-corpus split.
	if res.Mean < 0.4 {
		t.Fatalf("LOUO mean %v barely above chance", res.Mean)
	}
	within, err := TrainModel(ds, PaperFive()[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean > within.TestAcc+0.05 {
		t.Errorf("LOUO mean %v implausibly above within-corpus %v", res.Mean, within.TestAcc)
	}
}

// The folds must not depend on map iteration order: three runs on one
// corpus give identical per-user accuracies.
func TestLeaveOneUserOutDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	ds := louoCorpus(t)
	first, err := LeaveOneUserOut(ds, PaperFive()[0])
	if err != nil {
		t.Fatal(err)
	}
	for run := 2; run <= 3; run++ {
		res, err := LeaveOneUserOut(ds, PaperFive()[0])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.PerUser, first.PerUser) {
			t.Fatalf("run %d per-user accuracies %v, run 1 %v", run, res.PerUser, first.PerUser)
		}
	}
}

func TestLeaveOneUserOutValidation(t *testing.T) {
	ds, err := synth.NewDataset(synth.CorpusConfig{NumUsers: 1, TotalWindows: 70, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LeaveOneUserOut(ds, PaperFive()[0]); err == nil {
		t.Fatal("single-user corpus accepted")
	}
	ds2 := louoCorpus(t)
	if _, err := LeaveOneUserOut(ds2, DesignPointSpec{Name: "bad"}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

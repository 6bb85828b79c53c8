package har

import (
	"math"
	"sync"
	"testing"

	"repro/internal/synth"
)

// fullCorpus is the paper-scale corpus, built once per test binary.
var (
	corpusOnce sync.Once
	corpus     *synth.Dataset
	corpusErr  error
)

func paperCorpus(t *testing.T) *synth.Dataset {
	t.Helper()
	corpusOnce.Do(func() {
		corpus, corpusErr = synth.NewDataset(synth.DefaultCorpusConfig())
	})
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return corpus
}

func TestKnobSpaceHas24Points(t *testing.T) {
	specs := AllSpecs()
	if len(specs) != 24 {
		t.Fatalf("design space has %d points, want the paper's 24", len(specs))
	}
	names := make(map[string]bool)
	for _, s := range specs {
		if names[s.Name] {
			t.Errorf("duplicate spec name %q", s.Name)
		}
		names[s.Name] = true
		if err := s.Features.Validate(); err != nil {
			t.Errorf("spec %s invalid: %v", s.Name, err)
		}
	}
	for _, want := range []string{"DP1", "DP2", "DP3", "DP4", "DP5"} {
		if !names[want] {
			t.Errorf("published point %s missing from the design space", want)
		}
	}
}

func TestSpecMACsAndSizes(t *testing.T) {
	five := PaperFive()
	// DP1: 30 features -> hidden 12 -> 7 classes.
	if got := five[0].NNSizes(); got[0] != 30 || got[1] != 12 || got[2] != NumClasses {
		t.Fatalf("DP1 sizes %v", got)
	}
	if got := five[0].MACs(); got != 30*12+12*7 {
		t.Fatalf("DP1 MACs %d", got)
	}
	// DP5: 9 FFT bins only.
	if got := five[4].NNSizes(); got[0] != 9 {
		t.Fatalf("DP5 input width %d, want 9", got[0])
	}
	// No hidden layer.
	s := DesignPointSpec{Name: "flat", Features: withStretchFFT(AxesNone, 0)}
	if got := s.NNSizes(); len(got) != 2 || got[1] != NumClasses {
		t.Fatalf("flat sizes %v", got)
	}
	if s.String() == "" {
		t.Fatal("empty spec String")
	}
}

func TestTable2AccuracyCalibration(t *testing.T) {
	// The synthetic corpus must reproduce the paper's Table 2 accuracy
	// column within 3 points: 94/93/92/90/76.
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	ds := paperCorpus(t)
	points, err := Characterize(ds, PaperFive())
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.94, 0.93, 0.92, 0.90, 0.76}
	for i, p := range points {
		if math.Abs(p.Accuracy-want[i]) > 0.03 {
			t.Errorf("%s accuracy %.3f, want %.2f +/- 0.03", p.Spec.Name, p.Accuracy, want[i])
		}
	}
	// DP1 must be the most accurate and DP5 the least accurate of the five.
	for i := 1; i < 5; i++ {
		if points[i].Accuracy > points[0].Accuracy+0.005 {
			t.Errorf("%s accuracy %.3f exceeds DP1's %.3f", points[i].Spec.Name,
				points[i].Accuracy, points[0].Accuracy)
		}
		if points[i].Accuracy < points[4].Accuracy-0.005 {
			t.Errorf("%s accuracy %.3f below DP5's %.3f", points[i].Spec.Name,
				points[i].Accuracy, points[4].Accuracy)
		}
	}
	// Energy strictly decreasing DP1 -> DP5 (Table 2 energy column).
	for i := 1; i < 5; i++ {
		if points[i].EnergyPerActivity() >= points[i-1].EnergyPerActivity() {
			t.Errorf("energy not decreasing at %s", points[i].Spec.Name)
		}
	}
	// The five must form a Pareto chain among themselves.
	front := ParetoFront(points)
	if len(front) != 5 {
		t.Errorf("published five reduce to a front of %d", len(front))
	}
}

func TestParetoFrontOfFullSpace(t *testing.T) {
	// Figure 3: 24 scattered points; the best-accuracy point is DP1 and
	// the energy-accuracy span runs from ~76%/low-energy to ~94%/4.5 mJ.
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	ds := paperCorpus(t)
	points, err := Characterize(ds, AllSpecs())
	if err != nil {
		t.Fatal(err)
	}
	best := points[0]
	for _, p := range points {
		if p.Accuracy > best.Accuracy {
			best = p
		}
	}
	if best.Spec.Name != "DP1" && best.Accuracy > points[0].Accuracy+0.01 {
		t.Errorf("best accuracy belongs to %s (%.3f), want DP1 (%.3f) within 1pt",
			best.Spec.Name, best.Accuracy, points[0].Accuracy)
	}
	front := ParetoFront(points)
	if len(front) < 4 {
		t.Fatalf("front has only %d points", len(front))
	}
	// Front must be sorted by decreasing power with non-increasing accuracy.
	for i := 1; i < len(front); i++ {
		if front[i].Power() > front[i-1].Power() {
			t.Fatal("front not sorted by power")
		}
		if front[i].Accuracy > front[i-1].Accuracy+1e-9 {
			t.Fatal("front accuracy not non-increasing")
		}
	}
	// Nothing in the cloud may dominate a front member.
	for _, f := range front {
		for _, p := range points {
			if p.Accuracy > f.Accuracy && p.Power() < f.Power() {
				t.Errorf("front member %s dominated by %s", f.Spec.Name, p.Spec.Name)
			}
		}
	}
}

func TestClassifyPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	ds := paperCorpus(t)
	model, err := TrainModel(ds, PaperFive()[0])
	if err != nil {
		t.Fatal(err)
	}
	// Classify the test split through the full pipeline; agreement with
	// the reported test accuracy validates Classify end to end.
	correct := 0
	for _, i := range ds.Test {
		pred, err := model.Classify(ds.Windows[i])
		if err != nil {
			t.Fatal(err)
		}
		if pred == ds.Windows[i].Activity {
			correct++
		}
	}
	acc := float64(correct) / float64(len(ds.Test))
	if math.Abs(acc-model.TestAcc) > 1e-9 {
		t.Fatalf("pipeline accuracy %.4f != reported %.4f", acc, model.TestAcc)
	}
}

func TestCoreConfigAssembly(t *testing.T) {
	pts := []Characterized{
		{Spec: DesignPointSpec{Name: "a"}, Accuracy: 0.9},
		{Spec: DesignPointSpec{Name: "b"}, Accuracy: 0.8},
	}
	// Breakdowns are zero here; fill via energy profile of a real spec.
	cfg := CoreConfig(pts, 2)
	if cfg.Alpha != 2 || len(cfg.DPs) != 2 || cfg.DPs[0].Name != "a" {
		t.Fatalf("config %+v", cfg)
	}
	if cfg.Period != 3600 {
		t.Fatalf("period %v", cfg.Period)
	}
}

func TestTrainModelValidation(t *testing.T) {
	ds, err := synth.NewDataset(synth.CorpusConfig{NumUsers: 2, TotalWindows: 80, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	bad := DesignPointSpec{Name: "bad", Features: FeatureConfig{}}
	if _, err := TrainModel(ds, bad); err == nil {
		t.Fatal("invalid feature config accepted")
	}
}

func TestCharacterizeSmallCorpusRuns(t *testing.T) {
	// Smoke test on a tiny corpus: accuracy ordering cannot be asserted,
	// but the machinery must work end to end.
	ds, err := synth.NewDataset(synth.CorpusConfig{NumUsers: 3, TotalWindows: 210, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	points, err := Characterize(ds, PaperFive()[3:]) // DP4, DP5 only
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	for _, p := range points {
		if p.Accuracy <= 1.0/7 {
			t.Errorf("%s accuracy %.3f at or below chance", p.Spec.Name, p.Accuracy)
		}
		if p.Model == nil {
			t.Errorf("%s missing trained model", p.Spec.Name)
		}
		if p.Power() <= 0 {
			t.Errorf("%s power %v", p.Spec.Name, p.Power())
		}
	}
}

// TestCharacterizeBatchIndependent: a design point trains the same
// network, to the bit, whatever else its Characterize batch holds. The
// experiments command characterizes every design point in one batch and
// reads the published five from it, so a spec's training must not
// depend on the others (through a shared RNG, say).
func TestCharacterizeBatchIndependent(t *testing.T) {
	ds, err := synth.NewDataset(synth.CorpusConfig{NumUsers: 3, TotalWindows: 210, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	alone, err := Characterize(ds, PaperFive())
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Characterize(ds, append(PaperFive(), ExtendedSpecs()...))
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range alone {
		b := batch[i]
		if a.Spec.Name != b.Spec.Name || a.Accuracy != b.Accuracy || a.Breakdown != b.Breakdown {
			t.Fatalf("%s: accuracy %v breakdown %+v alone, %s: %v %+v in the batch",
				a.Spec.Name, a.Accuracy, a.Breakdown, b.Spec.Name, b.Accuracy, b.Breakdown)
		}
		la, lb := a.Model.Net.Layers, b.Model.Net.Layers
		if len(la) != len(lb) {
			t.Fatalf("%s: %d layers alone, %d in the batch", a.Spec.Name, len(la), len(lb))
		}
		for l := range la {
			for name, pair := range map[string][2][]float64{
				"weight": {la[l].W, lb[l].W},
				"bias":   {la[l].B, lb[l].B},
			} {
				if !sameBits(pair[0], pair[1]) {
					t.Fatalf("%s layer %d: %ss differ between the two batches", a.Spec.Name, l, name)
				}
			}
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

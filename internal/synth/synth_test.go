package synth

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dsp"
)

func TestActivityStrings(t *testing.T) {
	for _, a := range Activities() {
		if a.String() == "" {
			t.Fatalf("empty name for activity %d", int(a))
		}
	}
	if Activity(42).String() == "" {
		t.Fatal("fallback name empty")
	}
	if len(Activities()) != NumActivities {
		t.Fatalf("Activities() has %d entries, want %d", len(Activities()), NumActivities)
	}
}

func TestWindowShape(t *testing.T) {
	u := NewUserProfile(0, 1)
	rng := rand.New(rand.NewSource(1))
	for _, act := range Activities() {
		w := Generate(u, act, rng)
		if len(w.AccelX) != WindowSamples || len(w.AccelY) != WindowSamples ||
			len(w.AccelZ) != WindowSamples || len(w.Stretch) != WindowSamples {
			t.Fatalf("%v: wrong window shape", act)
		}
		if w.Activity != act || w.User != 0 {
			t.Fatalf("%v: label/user not carried", act)
		}
	}
	if WindowSamples != 160 {
		t.Fatalf("WindowSamples = %d, want 160 (1.6 s at 100 Hz)", WindowSamples)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	u := NewUserProfile(3, 9)
	a := Generate(u, Walk, rand.New(rand.NewSource(5)))
	b := Generate(u, Walk, rand.New(rand.NewSource(5)))
	for i := range a.AccelY {
		if a.AccelY[i] != b.AccelY[i] || a.Stretch[i] != b.Stretch[i] {
			t.Fatal("same seed produced different windows")
		}
	}
}

func TestUserProfilesVary(t *testing.T) {
	a := NewUserProfile(0, 1)
	b := NewUserProfile(1, 1)
	if a.StepHz == b.StepHz && a.StretchBase == b.StretchBase && a.RotX == b.RotX {
		t.Fatal("distinct users have identical profiles")
	}
	// Same user, same seed: stable.
	c := NewUserProfile(0, 1)
	if a.StepHz != c.StepHz || a.RotZ != c.RotZ {
		t.Fatal("profile not deterministic")
	}
	if a.StepHz < 1.4 || a.StepHz > 2.3 {
		t.Fatalf("StepHz %v outside plausible gait range", a.StepHz)
	}
}

func TestSignalPhysicalPlausibility(t *testing.T) {
	u := NewUserProfile(2, 7)
	rng := rand.New(rand.NewSource(2))
	for _, act := range Activities() {
		w := Generate(u, act, rng)
		mag := make([]float64, len(w.AccelX))
		for i := range mag {
			mag[i] = math.Sqrt(w.AccelX[i]*w.AccelX[i] + w.AccelY[i]*w.AccelY[i] + w.AccelZ[i]*w.AccelZ[i])
		}
		m := dsp.Mean(mag)
		// Quasi-static activities hover near 1 g; dynamic ones exceed it.
		if m < 0.6 || m > 3.0 {
			t.Errorf("%v: mean |a| = %v g, implausible", act, m)
		}
		for _, v := range w.Stretch {
			if v < -0.5 || v > 1.5 {
				t.Errorf("%v: stretch %v outside sane range", act, v)
				break
			}
		}
	}
}

func TestDynamicActivitiesHaveMoreMotionEnergy(t *testing.T) {
	u := NewUserProfile(1, 3)
	rng := rand.New(rand.NewSource(3))
	motion := func(act Activity) float64 {
		var total float64
		const reps = 10
		for r := 0; r < reps; r++ {
			w := Generate(u, act, rng)
			total += dsp.Std(w.AccelY)
		}
		return total / reps
	}
	sit, walk, jump := motion(Sit), motion(Walk), motion(Jump)
	if !(sit < walk && walk < jump) {
		t.Fatalf("motion ordering violated: sit %v, walk %v, jump %v", sit, walk, jump)
	}
}

func TestWalkIsPeriodicInStretch(t *testing.T) {
	u := NewUserProfile(4, 11)
	rng := rand.New(rand.NewSource(4))
	w := Generate(u, Walk, rng)
	mags, err := dsp.RealFFTMagnitudes(w.Stretch, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Energy above DC must be substantial for gait.
	var ac float64
	for _, m := range mags[1:] {
		ac += m
	}
	s := Generate(u, Sit, rng)
	sitMags, err := dsp.RealFFTMagnitudes(s.Stretch, 16)
	if err != nil {
		t.Fatal(err)
	}
	var sitAC float64
	for _, m := range sitMags[1:] {
		sitAC += m
	}
	if ac < 3*sitAC {
		t.Fatalf("walk AC stretch energy %v not clearly above sit %v", ac, sitAC)
	}
}

func TestTransitionChangesPosture(t *testing.T) {
	u := NewUserProfile(5, 13)
	rng := rand.New(rand.NewSource(6))
	// Across many transitions, the first and last 20 samples should
	// frequently differ substantially in mean gravity.
	changed := 0
	const reps = 20
	for r := 0; r < reps; r++ {
		w := Generate(u, Transition, rng)
		head := dsp.Mean(w.AccelY[:20])
		tail := dsp.Mean(w.AccelY[len(w.AccelY)-20:])
		headX := dsp.Mean(w.AccelX[:20])
		tailX := dsp.Mean(w.AccelX[len(w.AccelX)-20:])
		if math.Abs(head-tail) > 0.15 || math.Abs(headX-tailX) > 0.15 {
			changed++
		}
	}
	if changed < reps/2 {
		t.Fatalf("only %d/%d transitions showed a posture change", changed, reps)
	}
}

func TestDatasetScale(t *testing.T) {
	ds, err := NewDataset(DefaultCorpusConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Windows) != 3553 {
		t.Fatalf("corpus size %d, want 3553", len(ds.Windows))
	}
	if len(ds.Users) != 14 {
		t.Fatalf("user count %d, want 14", len(ds.Users))
	}
	// Every user contributes ~254 windows.
	perUser := make(map[int]int)
	for _, w := range ds.Windows {
		perUser[w.User]++
	}
	for u, n := range perUser {
		if n < 250 || n > 258 {
			t.Errorf("user %d has %d windows, want ~254", u, n)
		}
	}
	// Split proportions 60/20/20 within rounding.
	total := len(ds.Train) + len(ds.Val) + len(ds.Test)
	if total != 3553 {
		t.Fatalf("split covers %d windows, want 3553", total)
	}
	if f := float64(len(ds.Train)) / 3553; f < 0.55 || f > 0.62 {
		t.Errorf("train fraction %v, want ~0.6", f)
	}
	if f := float64(len(ds.Val)) / 3553; f < 0.17 || f > 0.23 {
		t.Errorf("val fraction %v, want ~0.2", f)
	}
	// No index appears in two partitions.
	seen := make(map[int]bool, total)
	for _, part := range [][]int{ds.Train, ds.Val, ds.Test} {
		for _, i := range part {
			if seen[i] {
				t.Fatal("overlapping split partitions")
			}
			seen[i] = true
		}
	}
}

func TestDatasetStratification(t *testing.T) {
	ds, err := NewDataset(CorpusConfig{NumUsers: 4, TotalWindows: 600, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Every activity must appear in every partition.
	for name, part := range map[string][]int{"train": ds.Train, "val": ds.Val, "test": ds.Test} {
		got := make(map[Activity]bool)
		for _, i := range part {
			got[ds.Windows[i].Activity] = true
		}
		for _, act := range Activities() {
			if !got[act] {
				t.Errorf("%s partition missing activity %v", name, act)
			}
		}
	}
}

func TestDatasetActivityShares(t *testing.T) {
	ds, err := NewDataset(DefaultCorpusConfig())
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[Activity]int)
	for _, w := range ds.Windows {
		counts[w.Activity]++
	}
	for act, share := range activityShare {
		got := float64(counts[act]) / float64(len(ds.Windows))
		if math.Abs(got-share) > 0.02 {
			t.Errorf("%v share %v, want ~%v", act, got, share)
		}
	}
}

func TestDatasetValidation(t *testing.T) {
	if _, err := NewDataset(CorpusConfig{NumUsers: 0, TotalWindows: 10}); err == nil {
		t.Fatal("zero users accepted")
	}
	if _, err := NewDataset(CorpusConfig{NumUsers: 10, TotalWindows: 5}); err == nil {
		t.Fatal("fewer windows than users accepted")
	}
}

func TestDatasetDeterminism(t *testing.T) {
	cfg := CorpusConfig{NumUsers: 3, TotalWindows: 120, Seed: 77}
	a, err := NewDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Windows {
		if a.Windows[i].Activity != b.Windows[i].Activity {
			t.Fatal("activity sequence differs")
		}
		for j := range a.Windows[i].AccelY {
			if a.Windows[i].AccelY[j] != b.Windows[i].AccelY[j] {
				t.Fatal("samples differ between identically-seeded corpora")
			}
		}
	}
	for i := range a.Train {
		if a.Train[i] != b.Train[i] {
			t.Fatal("train split differs")
		}
	}
}

func TestApportionExact(t *testing.T) {
	for _, n := range []int{1, 7, 253, 254, 1000} {
		counts := apportion(n, activityShare)
		total := 0
		for _, c := range counts {
			total += c
		}
		if total != n {
			t.Fatalf("apportion(%d) sums to %d", n, total)
		}
	}
}

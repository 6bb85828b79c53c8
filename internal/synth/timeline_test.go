package synth

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewTimelineValidation(t *testing.T) {
	if _, err := NewTimeline(-1, 1); err == nil {
		t.Fatal("negative hour accepted")
	}
	if _, err := NewTimeline(24, 1); err == nil {
		t.Fatal("hour 24 accepted")
	}
	tl, err := NewTimeline(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tl.hour != 3 {
		t.Fatalf("hour %d, want 3", tl.hour)
	}
}

func TestTimelineBoutsPersist(t *testing.T) {
	u := NewUserProfile(1, 2)
	tl, err := NewTimeline(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Count label changes across 2000 windows: with 1–16 minute bouts the
	// stream must be strongly autocorrelated, i.e. far fewer changes than
	// windows.
	prev := tl.Next(u).Activity
	changes := 0
	for i := 0; i < 2000; i++ {
		cur := tl.Next(u).Activity
		if cur != prev {
			changes++
		}
		prev = cur
	}
	if changes > 200 {
		t.Fatalf("%d label changes in 2000 windows: bouts do not persist", changes)
	}
	if changes == 0 {
		t.Fatal("no activity changes in 2000 windows (~53 min)")
	}
}

func TestTimelineTransitionsBridgeBouts(t *testing.T) {
	u := NewUserProfile(2, 4)
	tl, err := NewTimeline(12, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Whenever the persistent activity changes, a Transition window must
	// appear between the bouts: two consecutive windows may only differ
	// if one of them is a Transition.
	prev := tl.current
	sawTransition := false
	for i := 0; i < 5000; i++ {
		w := tl.Next(u)
		if w.Activity == Transition {
			sawTransition = true
		} else if prev != Transition && w.Activity != prev {
			t.Fatalf("window %d: %v -> %v with no transition", i, prev, w.Activity)
		}
		prev = w.Activity
	}
	if !sawTransition {
		t.Fatal("no transitions in 5000 windows")
	}
}

func TestTimelineHourlyMixShapesStream(t *testing.T) {
	u := NewUserProfile(3, 6)
	// Night: overwhelmingly lying down.
	tl, err := NewTimeline(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	lie := 0
	const n = 1500
	for i := 0; i < n; i++ {
		if tl.Next(u).Activity == LieDown {
			lie++
		}
	}
	if float64(lie)/n < 0.6 {
		t.Fatalf("only %d/%d night windows lying down", lie, n)
	}
	// Midday: mostly not lying down.
	tl2, err := NewTimeline(10, 8)
	if err != nil {
		t.Fatal(err)
	}
	lie = 0
	for i := 0; i < n; i++ {
		if tl2.Next(u).Activity == LieDown {
			lie++
		}
	}
	if float64(lie)/n > 0.2 {
		t.Fatalf("%d/%d midday windows lying down", lie, n)
	}
}

func TestTimelineClockAdvances(t *testing.T) {
	u := NewUserProfile(4, 8)
	tl, err := NewTimeline(23, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < WindowsPerHour; i++ {
		tl.Next(u)
	}
	if tl.hour != 0 {
		t.Fatalf("hour %d after one hour of windows from 23, want 0 (wrap)", tl.hour)
	}
}

func TestHourlyMixDistributions(t *testing.T) {
	for hour := 0; hour < 24; hour++ {
		mix := hourlyMix(hour)
		var sum float64
		for a, p := range mix {
			if p < 0 {
				t.Fatalf("hour %d: negative probability for %v", hour, a)
			}
			if a == Transition {
				t.Fatalf("hour %d: transition in the persistent mix", hour)
			}
			sum += p
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("hour %d: mix sums to %v", hour, sum)
		}
	}
}

// Advance(n) must cover n windows exactly as n NextLabel calls would:
// the same per-label counts, and the same clock, bout and RNG state
// afterwards, from every start hour and across hour and day wraps. The
// sim's consumption model relies on the counts; the churn seam (an
// offline device's user keeps living) relies on the state.
func TestAdvanceMatchesNextLabel(t *testing.T) {
	lengths := rand.New(rand.NewSource(1))
	for hour := 0; hour < 24; hour++ {
		for seed := int64(0); seed < 100; seed++ {
			ref, err := NewTimeline(hour, seed)
			if err != nil {
				t.Fatal(err)
			}
			got, err := NewTimeline(hour, seed)
			if err != nil {
				t.Fatal(err)
			}
			ns := []int{0, 1, lengths.Intn(3*WindowsPerHour + 1), WindowsPerHour,
				3 * WindowsPerHour, lengths.Intn(3*WindowsPerHour + 1), 0}
			for step, n := range ns {
				var want [NumActivities]int
				for i := 0; i < n; i++ {
					want[ref.NextLabel()]++
				}
				if counts := got.Advance(n); counts != want {
					t.Fatalf("hour %d seed %d step %d: Advance(%d) counts %v, NextLabel counts %v",
						hour, seed, step, n, counts, want)
				}
				if got.windows != ref.windows || got.hour != ref.hour ||
					got.remaining != ref.remaining || got.current != ref.current {
					t.Fatalf("hour %d seed %d step %d: after Advance(%d) (window %d, hour %d, bout %v with %d left), "+
						"after NextLabel (window %d, hour %d, bout %v with %d left)", hour, seed, step, n,
						got.windows, got.hour, got.current, got.remaining,
						ref.windows, ref.hour, ref.current, ref.remaining)
				}
			}
			if a, b := got.rng.Int63(), ref.rng.Int63(); a != b {
				t.Fatalf("hour %d seed %d: Advance drew different randomness than NextLabel", hour, seed)
			}
		}
	}
}

// mapDraw is the bout draw as a walk of hourlyMix's map in Activities()
// order, the reference startBout's per-hour tables must reproduce.
func mapDraw(hour int, rng *rand.Rand) (Activity, int) {
	mix := hourlyMix(hour)
	r := rng.Float64()
	acc := 0.0
	next := Sit
	for _, a := range Activities() {
		p, ok := mix[a]
		if !ok {
			continue
		}
		acc += p
		if r < acc {
			next = a
			break
		}
	}
	return next, minBout + rng.Intn(maxBout-minBout)
}

// scriptedSource replays fixed Int63 values, so a test can aim
// rand.Rand.Float64 at chosen draws.
type scriptedSource struct {
	vals []int64
	i    int
}

func (s *scriptedSource) Int63() int64 {
	v := s.vals[s.i%len(s.vals)]
	s.i++
	return v
}

func (s *scriptedSource) Seed(int64) {}

// startBout must pick the same activity and dwell as the map walk for
// every hour: on random draws, and on draws aimed exactly at, and just
// below, each cumulative boundary, and at the largest draw below 1.
func TestStartBoutMatchesMapDraw(t *testing.T) {
	for hour := 0; hour < 24; hour++ {
		probes := []float64{0, math.Nextafter(1, 0)}
		acc := 0.0
		for _, a := range Activities() {
			if p, ok := hourlyMix(hour)[a]; ok {
				acc += p
				probes = append(probes, acc, math.Nextafter(acc, 0))
			}
		}
		var script []int64
		for i, r := range probes {
			if r >= 1 {
				continue // no draw reaches it
			}
			// Float64 returns Int63/2^63; the dwell draw reads the top 31
			// bits, kept small so Intn never rejects.
			script = append(script, int64(r*(1<<63)), int64(i)<<32)
		}
		sources := []func() rand.Source{
			func() rand.Source { return &scriptedSource{vals: script} },
			func() rand.Source { return rand.NewSource(int64(hour)) },
		}
		for _, src := range sources {
			ref := rand.New(src())
			tl := &Timeline{rng: rand.New(src()), hour: hour}
			for i := 0; i < 1000; i++ {
				wantAct, wantDwell := mapDraw(hour, ref)
				tl.startBout()
				if tl.current != wantAct || tl.remaining != wantDwell {
					t.Fatalf("hour %d draw %d: startBout %v for %d windows, map draw %v for %d",
						hour, i, tl.current, tl.remaining, wantAct, wantDwell)
				}
			}
		}
	}
}

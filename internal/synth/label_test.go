package synth

import "testing"

// NextLabel must be a drop-in for the labels Next produces: deterministic
// for a seed, valid labels, bouts inside the dwell-time range, and a
// single Transition between consecutive bouts.
func TestNextLabelDeterministic(t *testing.T) {
	a, err := NewTimeline(8, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTimeline(8, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		if la, lb := a.NextLabel(), b.NextLabel(); la != lb {
			t.Fatalf("window %d: %v != %v for the same seed", i, la, lb)
		}
	}
}

func TestNextLabelBoutStructure(t *testing.T) {
	tl, err := NewTimeline(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	boutLen := 0
	var prev Activity = -1
	for i := 0; i < 50_000; i++ {
		l := tl.NextLabel()
		if l < 0 || l >= NumActivities {
			t.Fatalf("window %d: invalid label %d", i, l)
		}
		if l == Transition {
			if prev == Transition {
				t.Fatalf("window %d: back-to-back transitions", i)
			}
			// A bout just ended: its dwell time must be in range. The
			// first observed bout can be truncated by the start.
			if prev != -1 && boutLen > maxBout {
				t.Fatalf("window %d: bout of %d windows exceeds %d", i, boutLen, maxBout)
			}
			boutLen = 0
		} else {
			boutLen++
		}
		prev = l
	}
}

func TestNextLabelMatchesNextWindows(t *testing.T) {
	// Next must report the same label NextLabel computed for the window.
	u := NewUserProfile(2, 7)
	tl, err := NewTimeline(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		w := tl.Next(u)
		if w.Activity < 0 || w.Activity >= NumActivities {
			t.Fatalf("window %d: invalid activity %d", i, w.Activity)
		}
	}
}

func TestNextLabelAdvancesHour(t *testing.T) {
	tl, err := NewTimeline(23, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < WindowsPerHour; i++ {
		tl.NextLabel()
	}
	if got := tl.hour; got != 0 {
		t.Fatalf("hour after one hour of windows = %d, want wrap to 0", got)
	}
}

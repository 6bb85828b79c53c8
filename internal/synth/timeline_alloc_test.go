package synth

import "testing"

// Advance is //reap:hotpath: the sim steps every device's timeline an
// hour at a time through it, so a call must not allocate.
func TestAdvanceZeroAllocs(t *testing.T) {
	tl, err := NewTimeline(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = tl.Advance(WindowsPerHour)
	})
	if allocs != 0 {
		t.Fatalf("Advance allocated %v times per run, want 0", allocs)
	}
}

package synth

import (
	"fmt"
	"math/rand"
)

// Timeline generates a realistic sequence of activity labels for a day
// of wear: activities persist for minutes (not single windows), posture
// changes are bridged by explicit Transition windows, and the mix varies
// by hour of day (nobody jogs at 3 am). The labels do not depend on who
// wears the device, so a Timeline holds no UserProfile: Next takes the
// wearer when it synthesizes a sensor window, and NextLabel and Advance
// need none. The day-in-the-life experiment classifies Next's windows
// to measure realized accuracy against a lifelike stream rather than
// uniformly shuffled windows; the sim package steps one timeline per
// device through Advance for the hour's activity mix.
type Timeline struct {
	rng *rand.Rand

	current   Activity
	remaining int // windows left in the current bout
	hour      int // hour of day; advances every WindowsPerHour windows
	windows   int // windows generated within the current hour
}

// WindowsPerHour is how many 1.6 s activity windows fit in an hour
// (3600 / 1.6).
const WindowsPerHour = 2250

// boutWindows is the dwell-time range of a bout, in windows (a window is
// 1.6 s; 40–600 windows ≈ 1–16 minutes).
const (
	minBout = 40
	maxBout = 600
)

// hourlyMix returns the activity distribution for an hour of day.
// Probabilities sum to 1 over the six persistent activities; transitions
// are inserted between bouts rather than drawn.
func hourlyMix(hour int) map[Activity]float64 {
	switch {
	case hour < 6: // night
		return map[Activity]float64{LieDown: 0.92, Sit: 0.05, Stand: 0.02, Walk: 0.01}
	case hour < 9: // morning: commute
		return map[Activity]float64{Sit: 0.25, Stand: 0.15, Walk: 0.25, Drive: 0.25, Jump: 0.05, LieDown: 0.05}
	case hour < 12: // working morning
		return map[Activity]float64{Sit: 0.55, Stand: 0.20, Walk: 0.20, Jump: 0.05}
	case hour < 14: // lunch
		return map[Activity]float64{Sit: 0.40, Stand: 0.20, Walk: 0.35, Jump: 0.05}
	case hour < 18: // working afternoon
		return map[Activity]float64{Sit: 0.55, Stand: 0.20, Walk: 0.18, Drive: 0.05, Jump: 0.02}
	case hour < 20: // evening: commute/exercise
		return map[Activity]float64{Sit: 0.20, Stand: 0.10, Walk: 0.30, Drive: 0.20, Jump: 0.15, LieDown: 0.05}
	default: // wind-down
		return map[Activity]float64{Sit: 0.45, Stand: 0.05, Walk: 0.10, LieDown: 0.40}
	}
}

// NewTimeline starts a timeline at the given hour of day (0–23). The
// seed alone fixes the label stream; the wearer enters only through
// Next.
func NewTimeline(startHour int, seed int64) (*Timeline, error) {
	if startHour < 0 || startHour > 23 {
		return nil, fmt.Errorf("synth: start hour %d outside 0..23", startHour)
	}
	tl := &Timeline{
		rng:  rand.New(rand.NewSource(seed)),
		hour: startHour,
	}
	tl.startBout()
	return tl, nil
}

// boutMix is one hour's hourlyMix as a cumulative table: the activities
// the mix names, in Activities() order, each with the running sum of
// the probabilities up to and including it, accumulated in that order.
// startBout compares its draw against exactly the partial sums a walk
// of the map produces, so the table picks the same activity for every
// draw.
type boutMix struct {
	n    int
	acts [NumActivities]Activity
	cum  [NumActivities]float64
}

// boutMixes holds each hour of day's table, built once from hourlyMix.
var boutMixes = func() (t [24]boutMix) {
	for h := range t {
		mix, m := hourlyMix(h), &t[h]
		acc := 0.0
		for _, a := range Activities() {
			p, ok := mix[a]
			if !ok {
				continue
			}
			acc += p
			m.acts[m.n], m.cum[m.n] = a, acc
			m.n++
		}
	}
	return t
}()

// startBout draws the next persistent activity and its dwell time.
//
//reap:hotpath
func (tl *Timeline) startBout() {
	m := &boutMixes[tl.hour]
	r := tl.rng.Float64()
	next := Sit
	for j := 0; j < m.n; j++ {
		if r < m.cum[j] {
			next = m.acts[j]
			break
		}
	}
	tl.current = next
	tl.remaining = minBout + tl.rng.Intn(maxBout-minBout)
}

// Next returns the next activity window in the stream, synthesized for
// wearer u from the timeline's own random stream. Between bouts it
// emits a single Transition window.
func (tl *Timeline) Next(u UserProfile) Window {
	return Generate(u, tl.NextLabel(), tl.rng)
}

// NextLabel advances the stream one window and returns its label without
// synthesizing the 640-sample sensor window; Next is Generate over it.
// Callers that need how many windows carried each label, not their
// order, should use Advance, which covers the same windows a bout at a
// time. Interleaving NextLabel and Next on one Timeline is valid; the
// bout sequence only diverges from an all-Next run because Generate
// consumes additional randomness.
func (tl *Timeline) NextLabel() Activity {
	tl.tick(1)
	if tl.remaining <= 0 {
		tl.startBout()
		return Transition
	}
	tl.remaining--
	return tl.current
}

// Advance moves the stream n windows ahead and returns how many of them
// carried each label. It ends in the same window, hour and bout state as
// n NextLabel calls, and draws the same randomness, but steps once per
// bout rather than once per window. The sim package's consumption model
// uses it for an hour's activity mix, and for the churn seam: a device
// that leaves the fleet stops observing its user, but the user keeps
// living, so when the device rejoins the timeline must have moved on to
// the right hour of day and the right point in the bout, not frozen at
// the hour it left. Advance(n) with n <= 0 is a no-op.
//
//reap:hotpath
func (tl *Timeline) Advance(n int) (counts [NumActivities]int) {
	for n > 0 {
		if tl.remaining <= 0 {
			// A bout boundary, as in NextLabel: the next bout is drawn
			// at the hour of the Transition window.
			tl.tick(1)
			tl.startBout()
			counts[Transition]++
			n--
			continue
		}
		k := min(n, tl.remaining)
		tl.tick(k)
		tl.remaining -= k
		counts[tl.current] += k
		n -= k
	}
	return counts
}

// tick moves the clock k windows ahead, wrapping hours and days.
func (tl *Timeline) tick(k int) {
	tl.windows += k
	tl.hour = (tl.hour + tl.windows/WindowsPerHour) % 24
	tl.windows %= WindowsPerHour
}

package eval

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/har"
	"repro/internal/synth"
)

// DayHour is one hour of the day-in-the-life experiment.
type DayHour struct {
	Hour             int
	HarvestJ         float64
	ExpectedAccuracy float64
	RealizedAccuracy float64
	WindowsSeen      int
	WindowsCorrect   int
	WindowsMissed    int
}

// DayInLifeResult replays a realistic day: a subject lives through the
// synthetic activity timeline (sleep, commute, desk work, exercise) while
// the device runs REAP against the day's solar budgets and classifies the
// actual stream with the trained design-point classifiers. It closes the
// loop between the LP's *expected* accuracy (computed from test-split
// accuracies) and the accuracy *realized* on a lifelike, highly
// non-uniform activity mix.
type DayInLifeResult struct {
	Hours []DayHour
	// DayExpected and DayRealized aggregate over active windows.
	DayExpected, DayRealized float64
	// Coverage is the fraction of the day's windows the device observed.
	Coverage float64
}

// DayInLife runs the experiment: models must be index-aligned with
// cfg.DPs (as produced by har.Characterize + har.CoreConfig).
func DayInLife(cfg core.Config, models []*har.Model, user synth.UserProfile,
	dayBudget []float64, seed int64) (*DayInLifeResult, error) {
	plan, err := core.NewPlan(cfg)
	if err != nil {
		return nil, err
	}
	if len(models) != len(cfg.DPs) {
		return nil, fmt.Errorf("eval: %d models for %d design points", len(models), len(cfg.DPs))
	}
	if len(dayBudget) != 24 {
		return nil, fmt.Errorf("eval: day budget has %d hours, want 24", len(dayBudget))
	}
	tl, err := synth.NewTimeline(0, seed)
	if err != nil {
		return nil, err
	}
	// Sampling: classifying all 2250 windows per hour is exact but slow;
	// a fixed stride keeps the run fast while following the timeline.
	const stride = 10
	rng := rand.New(rand.NewSource(seed + 1))

	res := &DayInLifeResult{}
	var sumExpected float64
	var activeHours int
	totalSeen, totalWindows, totalCorrect := 0, 0, 0
	for hour := 0; hour < 24; hour++ {
		alloc, err := plan.Solve(dayBudget[hour])
		if err != nil {
			return nil, err
		}
		h := DayHour{
			Hour:             hour,
			HarvestJ:         dayBudget[hour],
			ExpectedAccuracy: alloc.ExpectedAccuracy(cfg),
		}
		// Walk the hour's windows; the device observes a window when some
		// design point is scheduled "now". Allocation order within the
		// hour is immaterial to the LP, so the schedule is realized by
		// drawing the design point per observed window proportionally.
		activeFrac := alloc.ActiveTime() / cfg.Period
		for w := 0; w < synth.WindowsPerHour; w++ {
			win := tl.Next(user)
			totalWindows++
			if w%stride != 0 {
				// Unclassified stride windows still advance the timeline.
				continue
			}
			if rng.Float64() >= activeFrac {
				h.WindowsMissed++
				continue
			}
			// Pick the design point proportional to its share.
			r := rng.Float64() * activeFrac
			dp := -1
			acc := 0.0
			for i, t := range alloc.Active {
				acc += t / cfg.Period
				if r < acc {
					dp = i
					break
				}
			}
			if dp < 0 {
				h.WindowsMissed++
				continue
			}
			pred, err := models[dp].Classify(win)
			if err != nil {
				return nil, err
			}
			h.WindowsSeen++
			totalSeen++
			if pred == win.Activity {
				h.WindowsCorrect++
				totalCorrect++
			}
		}
		if h.WindowsSeen > 0 {
			h.RealizedAccuracy = float64(h.WindowsCorrect) / float64(h.WindowsSeen)
			sumExpected += h.ExpectedAccuracy
			activeHours++
		}
		res.Hours = append(res.Hours, h)
	}
	if totalSeen > 0 {
		res.DayRealized = float64(totalCorrect) / float64(totalSeen)
	}
	if activeHours > 0 {
		res.DayExpected = sumExpected / float64(activeHours)
	}
	sampled := totalWindows / stride
	if sampled > 0 {
		res.Coverage = float64(totalSeen) / float64(sampled)
	}
	return res, nil
}

// Render prints the hour-by-hour day.
func (r *DayInLifeResult) Render() string {
	t := &table{header: []string{"hour", "harvest(J)", "expected%", "realized%", "seen", "missed"}}
	for _, h := range r.Hours {
		t.add(fmt.Sprintf("%d", h.Hour), f2(h.HarvestJ),
			f1(100*h.ExpectedAccuracy), f1(100*h.RealizedAccuracy),
			fmt.Sprintf("%d", h.WindowsSeen), fmt.Sprintf("%d", h.WindowsMissed))
	}
	return fmt.Sprintf(
		"Day in the life: realized %.1f%% on the live stream (coverage %.0f%%)\n",
		100*r.DayRealized, 100*r.Coverage) + t.String()
}

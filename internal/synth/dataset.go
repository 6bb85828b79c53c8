package synth

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/fpx"
)

// CorpusConfig controls synthetic corpus generation. The defaults
// reproduce the paper's user study scale: 14 subjects, 3553 windows.
type CorpusConfig struct {
	// NumUsers is the number of synthetic subjects.
	NumUsers int
	// TotalWindows is the corpus size across all users.
	TotalWindows int
	// Seed makes the corpus reproducible.
	Seed int64
}

// DefaultCorpusConfig mirrors the paper's data collection.
func DefaultCorpusConfig() CorpusConfig {
	return CorpusConfig{NumUsers: 14, TotalWindows: 3553, Seed: 2019}
}

// activityShare is the fraction of wear time spent in each activity; the
// paper does not publish its label distribution, so a plausible daily-life
// mix is used (documented substitution).
var activityShare = map[Activity]float64{
	Sit:        0.20,
	Stand:      0.15,
	Walk:       0.20,
	Jump:       0.08,
	Drive:      0.15,
	LieDown:    0.12,
	Transition: 0.10,
}

// Dataset is a labeled corpus with a fixed stratified train/val/test split
// (60/20/20 per the paper).
type Dataset struct {
	Cfg     CorpusConfig
	Users   []UserProfile
	Windows []Window
	// Train, Val, Test index into Windows.
	Train, Val, Test []int
}

// NewDataset generates the corpus and its split.
func NewDataset(cfg CorpusConfig) (*Dataset, error) {
	if cfg.NumUsers <= 0 {
		return nil, fmt.Errorf("synth: NumUsers %d must be positive", cfg.NumUsers)
	}
	if cfg.TotalWindows < cfg.NumUsers {
		return nil, fmt.Errorf("synth: TotalWindows %d below NumUsers %d", cfg.TotalWindows, cfg.NumUsers)
	}
	ds := &Dataset{Cfg: cfg}
	for u := 0; u < cfg.NumUsers; u++ {
		ds.Users = append(ds.Users, NewUserProfile(u, cfg.Seed))
	}

	// Spread windows across users as evenly as possible.
	perUser := make([]int, cfg.NumUsers)
	for i := range perUser {
		perUser[i] = cfg.TotalWindows / cfg.NumUsers
	}
	for i := 0; i < cfg.TotalWindows%cfg.NumUsers; i++ {
		perUser[i]++
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	for u, count := range perUser {
		counts := apportion(count, activityShare)
		for _, act := range Activities() {
			for k := 0; k < counts[act]; k++ {
				ds.Windows = append(ds.Windows, Generate(ds.Users[u], act, rng))
			}
		}
	}
	ds.split(rand.New(rand.NewSource(cfg.Seed + 1)))
	return ds, nil
}

// apportion distributes count across activities proportionally to share
// using the largest-remainder method, so the total is exact.
func apportion(count int, share map[Activity]float64) map[Activity]int {
	type frac struct {
		act Activity
		rem float64
	}
	out := make(map[Activity]int, len(share))
	var fracs []frac
	assigned := 0
	for _, act := range Activities() {
		exact := share[act] * float64(count)
		n := int(exact)
		out[act] = n
		assigned += n
		fracs = append(fracs, frac{act, exact - float64(n)})
	}
	sort.Slice(fracs, func(i, j int) bool {
		if !fpx.Eq(fracs[i].rem, fracs[j].rem) {
			return fracs[i].rem > fracs[j].rem
		}
		return fracs[i].act < fracs[j].act
	})
	for i := 0; assigned < count; i++ {
		out[fracs[i%len(fracs)].act]++
		assigned++
	}
	return out
}

// split partitions windows 60/20/20, stratified by (user, activity) so
// every subject and class appears in every partition.
func (ds *Dataset) split(rng *rand.Rand) {
	groups := make(map[[2]int][]int)
	for i, w := range ds.Windows {
		key := [2]int{w.User, int(w.Activity)}
		groups[key] = append(groups[key], i)
	}
	// Deterministic group order.
	var keys [][2]int
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		idx := groups[k]
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		nTrain := int(float64(len(idx)) * 0.6)
		nVal := int(float64(len(idx)) * 0.2)
		ds.Train = append(ds.Train, idx[:nTrain]...)
		ds.Val = append(ds.Val, idx[nTrain:nTrain+nVal]...)
		ds.Test = append(ds.Test, idx[nTrain+nVal:]...)
	}
}

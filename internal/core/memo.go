package core

import (
	"sync"
	"sync/atomic"
)

// maxMemoPlans caps the plan memo. Real fleets use a handful of
// configurations; past the cap a configuration compiles per call
// instead of growing the memo, so adversarial inputs stay bounded.
const maxMemoPlans = 4096

// planMemo holds one compiled plan per configuration fingerprint. The
// hit path is a lock-free sync.Map load; a miss compiles outside any
// lock and publishes with LoadOrStore, so concurrent misses on one
// configuration all return the plan published first. The first
// maxMemoPlans configurations are kept for the life of the process.
type planMemo struct {
	plans sync.Map // Config.Fingerprint() → *Plan
	n     atomic.Int64
}

// memo is the process-wide memo behind PlanFor.
var memo = &planMemo{}

// PlanFor returns the compiled plan for cfg, compiling and memoizing it
// on first sight. Configurations with the same fingerprint, and so
// differing at most in design-point names, share one *Plan. Every
// Controller gets its plan here; an invalid cfg fails like NewPlan.
func PlanFor(cfg Config) (*Plan, error) { return memo.get(cfg) }

func (m *planMemo) get(cfg Config) (*Plan, error) {
	fp := cfg.Fingerprint()
	if p, ok := m.plans.Load(fp); ok {
		return p.(*Plan), nil
	}
	p, err := NewPlan(cfg)
	if err != nil {
		return nil, err
	}
	// Reserve a slot before publishing, so concurrent misses cannot
	// overshoot the cap; a miss that loses the publication race hands
	// its slot back. The plain load first keeps the misses of a full
	// memo from writing the counter, which shares a cache line with
	// the map every hit reads.
	if m.n.Load() >= maxMemoPlans {
		return p, nil
	}
	if m.n.Add(1) > maxMemoPlans {
		m.n.Add(-1)
		return p, nil
	}
	if prev, loaded := m.plans.LoadOrStore(fp, p); loaded {
		m.n.Add(-1)
		return prev.(*Plan), nil
	}
	return p, nil
}

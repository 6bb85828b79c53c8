package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/fpx"
)

// freshMemo swaps the process-wide plan memo for an empty one until the
// test ends, so a test that asserts sharing never depends on headroom
// that earlier tests used up.
func freshMemo(t *testing.T) {
	t.Helper()
	saved := memo
	memo = &planMemo{}
	t.Cleanup(func() { memo = saved })
}

// TestSetAlphaSharesMemoizedPlan: controllers built from one
// configuration hold the memo's plan, keep holding one shared plan
// after SetAlpha, and so does a controller that reaches the same α by
// Restore. Toggling α between memoized configurations allocates
// nothing.
func TestSetAlphaSharesMemoizedPlan(t *testing.T) {
	freshMemo(t)
	cfg := DefaultConfig()
	a := newTestController(t, cfg, 10, 100)
	b := newTestController(t, cfg, 10, 100)
	want, err := PlanFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.plan != want || b.plan != want {
		t.Fatalf("controllers of one configuration hold plans %p and %p, want the memo's %p", a.plan, b.plan, want)
	}

	for _, ct := range []*Controller{a, b} {
		if err := ct.SetAlpha(2); err != nil {
			t.Fatal(err)
		}
	}
	cfg2 := cfg
	cfg2.Alpha = 2
	want2, err := PlanFor(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	restored := newTestController(t, cfg, 0, 100)
	if err := restored.Restore(ControllerState{BatteryJ: 5, Alpha: 2}); err != nil {
		t.Fatal(err)
	}
	for name, ct := range map[string]*Controller{"a": a, "b": b, "restored": restored} {
		if ct.plan != want2 {
			t.Errorf("controller %s holds plan %p after α = 2, want the memo's %p", name, ct.plan, want2)
		}
		if got := ct.Config().Alpha; !fpx.Eq(got, 2) {
			t.Errorf("controller %s reports α = %v, want 2", name, got)
		}
	}

	allocs := testing.AllocsPerRun(100, func() {
		if err := a.SetAlpha(1); err != nil {
			t.Fatal(err)
		}
		if err := a.SetAlpha(2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("an α toggle between memoized configurations allocated %v times, want 0", allocs)
	}
}

// TestPlanForConcurrentMissesShareOnePlan: goroutines that miss on one
// configuration at the same moment all get the plan published first.
func TestPlanForConcurrentMissesShareOnePlan(t *testing.T) {
	freshMemo(t)
	cfg := DefaultConfig()
	cfg.Alpha = 1.75
	const goroutines = 32
	got := make([]*Plan, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			p, err := PlanFor(cfg)
			if err != nil {
				t.Error(err)
			}
			got[g] = p
		}()
	}
	close(start)
	wg.Wait()
	for g, p := range got {
		if p == nil || p != got[0] {
			t.Fatalf("goroutine %d got plan %p, goroutine 0 got %p", g, p, got[0])
		}
	}
	if n := memo.n.Load(); n != 1 {
		t.Errorf("memo counts %d plans, want 1", n)
	}
}

// TestPlanMemoCap: past its cap the memo still answers every
// configuration with a correct plan but stops growing, and it keeps
// serving the configurations it already holds. It fills a private
// memo, so the process-wide one keeps its headroom.
func TestPlanMemoCap(t *testing.T) {
	m := &planMemo{}
	withAlpha := func(i int) Config {
		c := DefaultConfig()
		c.Alpha = 1 + float64(i)/maxMemoPlans
		return c
	}
	held := make([]*Plan, maxMemoPlans)
	for i := range held {
		p, err := m.get(withAlpha(i))
		if err != nil {
			t.Fatal(err)
		}
		held[i] = p
	}
	for i := maxMemoPlans; i < maxMemoPlans+8; i++ {
		cfg := withAlpha(i)
		p, err := m.get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewPlan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, ref) {
			t.Fatalf("config %d: plan compiled for another configuration", i)
		}
		for _, budget := range []float64{0.1, 2, 5, 12} {
			x, err := p.Solve(budget)
			if err != nil {
				t.Fatal(err)
			}
			y, err := ref.Solve(budget)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(x, y) {
				t.Fatalf("config %d at %v J: memo plan solves %v, a fresh plan %v", i, budget, x, y)
			}
		}
		if again, _ := m.get(cfg); again == p {
			t.Fatalf("config %d past the cap was memoized", i)
		}
	}
	stored := 0
	m.plans.Range(func(any, any) bool { stored++; return true })
	if n := m.n.Load(); stored != maxMemoPlans || n != maxMemoPlans {
		t.Errorf("memo holds %d plans and counts %d, want %d", stored, n, maxMemoPlans)
	}
	for i, want := range held {
		if p, _ := m.get(withAlpha(i)); p != want {
			t.Fatalf("config %d: memo no longer serves its first plan", i)
		}
	}
}

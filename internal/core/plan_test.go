package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/fpx"
)

// randomPlanConfig draws a valid configuration: 1-12 design points with
// powers above POff, accuracies in [0,1], α in a spread of exponents
// (including the degenerate α = 0), and an occasional zero POff.
func randomPlanConfig(rng *rand.Rand) Config {
	c := Config{
		Period: 600 + rng.Float64()*7200,
		POff:   rng.Float64() * 1e-4,
		Alpha:  []float64{0, 0.5, 1, 1, 2, 3.7}[rng.Intn(6)],
	}
	if rng.Intn(8) == 0 {
		c.POff = 0
	}
	n := 1 + rng.Intn(12)
	for i := 0; i < n; i++ {
		c.DPs = append(c.DPs, DesignPoint{
			Name:     "dp",
			Accuracy: rng.Float64(),
			Power:    c.POff + 1e-5 + rng.Float64()*5e-3,
		})
	}
	return c
}

// planValue returns J*(budget) as the objective of the allocation that
// p, compiled from c, solves.
func planValue(t *testing.T, p *Plan, c Config, budget float64) float64 {
	t.Helper()
	a, err := p.Solve(budget)
	if err != nil {
		t.Fatal(err)
	}
	return a.Objective(c)
}

// breakpoints lists the budgets of the plan's envelope vertices, the
// breakpoints of J*.
func (p *Plan) breakpoints() []float64 {
	bps := make([]float64, len(p.hull))
	for k, v := range p.hull {
		bps[k] = v.budget
	}
	return bps
}

// budgetSweep returns a budget grid spanning all four regions of the
// configuration: below the idle floor, dense across the envelope, and
// beyond saturation — with every region boundary included exactly.
func budgetSweep(c Config) []float64 {
	max := c.MaxUsefulBudget()
	budgets := []float64{0, c.MinBudget() / 2}
	for i := 0; i <= 400; i++ {
		budgets = append(budgets, 1.25*max*float64(i)/400)
	}
	return append(budgets, RegionBoundaries(c)...)
}

// TestPlanMatchesSolversOnDenseSweep is the exactness property: over
// randomized configurations and a dense budget sweep spanning every
// Region, the compiled plan's objective agrees with both iterative
// solvers to 1e-9 and its allocations are feasible.
func TestPlanMatchesSolversOnDenseSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	configs := []Config{DefaultConfig()}
	for i := 0; i < 30; i++ {
		configs = append(configs, randomPlanConfig(rng))
	}
	regions := map[Region]int{}
	for ci, c := range configs {
		p, err := NewPlan(c)
		if err != nil {
			t.Fatalf("config %d: %v", ci, err)
		}
		for _, budget := range budgetSweep(c) {
			got, err := p.Solve(budget)
			if err != nil {
				t.Fatalf("config %d plan at %v J: %v", ci, budget, err)
			}
			// Feasibility: time identity and energy budget.
			if d := math.Abs(got.Total() - c.Period); d > 1e-6 {
				t.Fatalf("config %d at %v J: time identity off by %v", ci, budget, d)
			}
			if e := got.Energy(c); e > budget+1e-6 {
				t.Fatalf("config %d at %v J: plan spends %v J", ci, budget, e)
			}
			jPlan := got.Objective(c)
			sx, err := Solve(c, budget)
			if err != nil {
				t.Fatalf("config %d simplex at %v J: %v", ci, budget, err)
			}
			en, err := SolveEnumerate(c, budget)
			if err != nil {
				t.Fatalf("config %d enumerate at %v J: %v", ci, budget, err)
			}
			if d := math.Abs(jPlan - sx.Objective(c)); d > 1e-9 {
				t.Fatalf("config %d at %v J (%s): plan %v vs simplex %v (Δ %g)",
					ci, budget, Classify(c, budget), jPlan, sx.Objective(c), d)
			}
			if d := math.Abs(jPlan - en.Objective(c)); d > 1e-9 {
				t.Fatalf("config %d at %v J (%s): plan %v vs enumerate %v (Δ %g)",
					ci, budget, Classify(c, budget), jPlan, en.Objective(c), d)
			}
			regions[Classify(c, budget)]++
		}
	}
	for _, r := range []Region{RegionDead, Region1, Region2, Region3} {
		if regions[r] == 0 {
			t.Errorf("sweep never visited %v", r)
		}
	}
}

// TestPlanValueConcaveNonDecreasing pins the envelope's defining shape:
// J*(Eb) is non-decreasing in the budget and concave (midpoint above
// the chord) over randomized configurations.
func TestPlanValueConcaveNonDecreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for ci := 0; ci < 40; ci++ {
		c := randomPlanConfig(rng)
		p, err := NewPlan(c)
		if err != nil {
			t.Fatalf("config %d: %v", ci, err)
		}
		max := 1.25 * c.MaxUsefulBudget()
		const steps = 300
		grid := make([]float64, steps+1)
		vals := make([]float64, steps+1)
		for i := range grid {
			grid[i] = max * float64(i) / steps
			vals[i] = planValue(t, p, c, grid[i])
		}
		for i := 1; i < len(vals); i++ {
			if vals[i] < vals[i-1]-1e-12 {
				t.Fatalf("config %d: J* decreases from %v to %v between %v and %v J",
					ci, vals[i-1], vals[i], grid[i-1], grid[i])
			}
		}
		// Concavity over the LP's domain [MinBudget, ∞): the dead region
		// below the idle floor is a separate regime (J* jumps to zero
		// there), so chords must not span it.
		for i := 0; i < len(grid); i++ {
			if grid[i] < c.MinBudget() {
				continue
			}
			for j := i + 2; j < len(grid); j += 37 {
				mid := (grid[i] + grid[j]) / 2
				chord := (vals[i] + vals[j]) / 2
				if v := planValue(t, p, c, mid); v < chord-1e-9 {
					t.Fatalf("config %d: J*(%v)=%v below chord %v of [%v, %v]",
						ci, mid, v, chord, grid[i], grid[j])
				}
			}
		}
	}
}

// TestPlanBreakpointsAgreeWithRegionBoundaries: every breakpoint is one
// of RegionBoundaries' budgets (the idle floor or a design point's
// saturation energy), the first is the floor, the last is the
// saturation energy of the best design point, and they strictly
// increase. The converse containment is deliberately absent:
// LP-dominated design points (under the concave envelope) contribute a
// region boundary but never a breakpoint — the paper's own Table 2 set
// has one such point (DP2 under α = 1).
func TestPlanBreakpointsAgreeWithRegionBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	configs := []Config{DefaultConfig()}
	for i := 0; i < 40; i++ {
		configs = append(configs, randomPlanConfig(rng))
	}
	for ci, c := range configs {
		p, err := NewPlan(c)
		if err != nil {
			t.Fatalf("config %d: %v", ci, err)
		}
		bps := p.breakpoints()
		if len(bps) == 0 {
			t.Fatalf("config %d: no breakpoints", ci)
		}
		if bps[0] != c.MinBudget() {
			t.Fatalf("config %d: first breakpoint %v, want idle floor %v", ci, bps[0], c.MinBudget())
		}
		if !sort.Float64sAreSorted(bps) {
			t.Fatalf("config %d: breakpoints unsorted: %v", ci, bps)
		}
		for i := 1; i < len(bps); i++ {
			if bps[i] <= bps[i-1] {
				t.Fatalf("config %d: breakpoints not strictly increasing: %v", ci, bps)
			}
		}
		bounds := RegionBoundaries(c)
		for _, bp := range bps {
			found := false
			for _, b := range bounds {
				if b == bp {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("config %d: breakpoint %v is not a region boundary %v", ci, bp, bounds)
			}
		}
		// The last breakpoint saturates the most valuable state; past it
		// the value is flat at the maximum weight.
		if d := math.Abs(planValue(t, p, c, bps[len(bps)-1]) - planValue(t, p, c, 2*bps[len(bps)-1]+1)); d > 0 {
			t.Fatalf("config %d: value not flat past the last breakpoint (Δ %g)", ci, d)
		}
	}
	// The documented concrete case: under α = 1 the paper's DP2 lies
	// strictly under the DP3–DP1 chord, so the default plan has exactly
	// five breakpoints for six region boundaries.
	p, err := NewPlan(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got, bounds := len(p.hull), len(RegionBoundaries(DefaultConfig())); got != bounds-1 {
		t.Fatalf("paper config: %d breakpoints for %d boundaries, want DP2 excluded (one fewer)", got, bounds)
	}
}

// TestPlanSolveIntoReusesBuffer: after the first call, SolveInto must
// keep writing into the same Active backing array and agree with Solve.
func TestPlanSolveIntoReusesBuffer(t *testing.T) {
	c := DefaultConfig()
	p, err := NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	var a Allocation
	if err := p.SolveInto(5, &a); err != nil {
		t.Fatal(err)
	}
	first := &a.Active[0]
	for _, budget := range budgetSweep(c) {
		if err := p.SolveInto(budget, &a); err != nil {
			t.Fatal(err)
		}
		if &a.Active[0] != first {
			t.Fatalf("SolveInto reallocated the Active slice at %v J", budget)
		}
		want, err := p.Solve(budget)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Active {
			if a.Active[i] != want.Active[i] {
				t.Fatalf("SolveInto and Solve disagree at %v J: %v vs %v", budget, a, want)
			}
		}
		if a.Off != want.Off || a.Dead != want.Dead {
			t.Fatalf("SolveInto and Solve disagree at %v J: %v vs %v", budget, a, want)
		}
	}
}

// TestPlanErrorsAndDegenerates covers the argument contract and the
// all-zero-weight degeneracy (every accuracy zero under α > 0), where
// the whole envelope collapses to the off vertex.
func TestPlanErrorsAndDegenerates(t *testing.T) {
	if _, err := NewPlan(Config{}); err == nil {
		t.Fatal("NewPlan accepted an invalid config")
	}
	c := DefaultConfig()
	p, err := NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{-1, math.NaN()} {
		if _, err := p.Solve(bad); err == nil {
			t.Errorf("Solve(%v) accepted", bad)
		}
	}

	degen := DefaultConfig()
	for i := range degen.DPs {
		degen.DPs[i].Accuracy = 0
	}
	dp, err := NewPlan(degen)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(dp.hull); got != 1 {
		t.Fatalf("all-zero-weight plan has %d breakpoints, want 1 (the off vertex)", got)
	}
	a, err := dp.Solve(5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Off != degen.Period || a.ActiveTime() != 0 {
		t.Fatalf("all-zero-weight plan at 5 J: %v, want the full period off", a)
	}
	// Every allocation is optimal when all weights are zero; enumerate
	// happens to pick a different zero-objective vertex, so only the
	// objective is comparable.
	en, err := SolveEnumerate(degen, 5)
	if err != nil {
		t.Fatal(err)
	}
	if en.Objective(degen) != 0 || a.Objective(degen) != 0 {
		t.Fatalf("degenerate objectives nonzero: plan %v, enumerate %v",
			a.Objective(degen), en.Objective(degen))
	}
}

// TestControllerPlanFastPath pins the controller's zero-allocation solve
// path: a controller on its compiled plan steps identically to one whose
// SolveContext hook runs the simplex, follows SetAlpha to the plan for
// the new α, and keeps the caller's design-point names.
func TestControllerPlanFastPath(t *testing.T) {
	cfg := DefaultConfig()
	planned := newTestController(t, cfg, 20, 100)
	reference := newTestController(t, cfg, 20, 100)
	reference.SetSolveFunc(SolveContext)
	for step, h := range []float64{0, 0.5, 3, 9, 30, 1, 0} {
		a, err := planned.Step(h)
		if err != nil {
			t.Fatal(err)
		}
		b, err := reference.Step(h)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(a.Objective(cfg) - b.Objective(cfg)); d > 1e-9 {
			t.Fatalf("step %d: plan objective diverges from simplex by %g", step, d)
		}
		if d := math.Abs(planned.Battery() - reference.Battery()); d > 1e-9 {
			t.Fatalf("step %d: battery diverges by %g", step, d)
		}
		if err := planned.Report(a.Energy(cfg)); err != nil {
			t.Fatal(err)
		}
		if err := reference.Report(b.Energy(cfg)); err != nil {
			t.Fatal(err)
		}
	}

	// SetAlpha moves the controller to the plan for the new α.
	if err := planned.SetAlpha(2); err != nil {
		t.Fatal(err)
	}
	a, err := planned.Step(5)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := planned.Config()
	want, err := Solve(cfg2, planned.LastBudget())
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(a.Objective(cfg2) - want.Objective(cfg2)); d > 1e-9 {
		t.Fatalf("after SetAlpha(2): plan objective diverges from simplex by %g", d)
	}

	// A controller whose configuration differs from the memoized one
	// only in names reports the caller's names.
	renamed := DefaultConfig()
	renamed.DPs[0].Name = "renamed"
	ct := newTestController(t, renamed, 0, 0)
	if got := ct.Config().DPs[0].Name; got != "renamed" {
		t.Fatalf("controller reports design point %q, want the caller's name", got)
	}
}

// enumerateValue is J*(budget) from the enumerate solver, the reference
// the price is checked against.
func enumerateValue(t *testing.T, c Config, budget float64) float64 {
	t.Helper()
	a, err := SolveEnumerate(c, budget)
	if err != nil {
		t.Fatal(err)
	}
	return a.Objective(c)
}

// TestShadowPriceRegions pins the price's shape on the paper's
// configuration: zero in the dead region and once DP1 saturates, DP5's
// marginal accuracy per joule in Region 1, and a lower positive price
// in Region 2.
func TestShadowPriceRegions(t *testing.T) {
	c := DefaultConfig()
	p, err := NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []float64{0, 0.1, 9.94, 12} {
		price, err := p.ShadowPrice(budget)
		if err != nil {
			t.Fatal(err)
		}
		if price != 0 {
			t.Errorf("budget %v: price %v, want 0", budget, price)
		}
	}
	p1, err := p.ShadowPrice(2.0)
	if err != nil {
		t.Fatal(err)
	}
	want := c.DPs[4].Accuracy / c.Period / (c.DPs[4].Power - c.POff)
	if math.Abs(p1-want) > 1e-12*want {
		t.Errorf("region-1 price %v, want %v", p1, want)
	}
	p2, err := p.ShadowPrice(6.0)
	if err != nil {
		t.Fatal(err)
	}
	if p2 <= 0 || p2 >= p1 {
		t.Errorf("region-2 price %v not in (0, %v)", p2, p1)
	}
}

// TestShadowPriceAtBreakpoints: at an exact envelope breakpoint the
// price is the slope of the segment to its right, and zero at the last
// one. The table is the paper's configuration under α = 1 (DP2 lies
// under the envelope, so it has no breakpoint); the LP dual returned
// the left-hand slope at DP5's saturation, 0.18357 instead of 0.08838.
// Random configurations then check every breakpoint against a forward
// difference of SolveEnumerate's objective.
func TestShadowPriceAtBreakpoints(t *testing.T) {
	c := DefaultConfig()
	paper, err := NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	saturates := func(i int) float64 { return c.DPs[i].EnergyPerPeriod(c.Period) }
	for _, tc := range []struct {
		name          string
		budget, price float64
	}{
		{"idle floor", c.MinBudget(), 0.18357488},
		{"DP5 saturates", saturates(4), 0.088383838},
		{"DP4 saturates", saturates(3), 0.030864198},
		{"DP3 saturates", saturates(2), 0.0059101655},
		{"DP1 saturates", saturates(0), 0},
	} {
		price, err := paper.ShadowPrice(tc.budget)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(price-tc.price) > 1e-8 {
			t.Errorf("%s (%v J): price %v, want %v", tc.name, tc.budget, price, tc.price)
		}
	}
	if got := len(paper.hull); got != 5 {
		t.Fatalf("paper plan has %d breakpoints, the table covers 5", got)
	}

	rng := rand.New(rand.NewSource(47))
	for ci := 0; ci < 100; ci++ {
		c := randomPlanConfig(rng)
		p, err := NewPlan(c)
		if err != nil {
			t.Fatal(err)
		}
		bps := p.breakpoints()
		last := len(bps) - 1
		for k, b := range bps {
			price, err := p.ShadowPrice(b)
			if err != nil {
				t.Fatal(err)
			}
			want := 0.0
			if k < last {
				h := (bps[k+1] - b) / 2
				want = (enumerateValue(t, c, b+h) - enumerateValue(t, c, b)) / h
			}
			if math.Abs(price-want) > 1e-6*want {
				t.Errorf("config %d breakpoint %d (%v J): price %v, right-side slope %v", ci, k, b, price, want)
			}
		}
	}
}

// TestShadowPriceMatchesFiniteDifference: inside every envelope segment
// of random configurations the price equals the central finite
// difference of SolveEnumerate's objective to 1e-6 relative. Every other
// configuration keeps the paper's design points and only draws α. α <
// 0.01 is sampled on purpose: the weights aᵢ^α crowd together near 1
// there, and the LP dual drifted by up to 1.6%.
func TestShadowPriceMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, alphas := range [][2]float64{{0, 0.01}, {0.01, 4}, {4, 10}} {
		for ci := 0; ci < 200; ci++ {
			c := DefaultConfig()
			if ci%2 == 1 {
				c = randomPlanConfig(rng)
			}
			c.Alpha = alphas[0] + rng.Float64()*(alphas[1]-alphas[0])
			p, err := NewPlan(c)
			if err != nil {
				t.Fatal(err)
			}
			bps := p.breakpoints()
			for k := 0; k+1 < len(bps); k++ {
				lo, width := bps[k], bps[k+1]-bps[k]
				budget := lo + (0.25+0.5*rng.Float64())*width
				h := width / 5
				price, err := p.ShadowPrice(budget)
				if err != nil {
					t.Fatal(err)
				}
				numeric := (enumerateValue(t, c, budget+h) - enumerateValue(t, c, budget-h)) / (2 * h)
				if math.Abs(price-numeric) > 1e-6*numeric {
					t.Errorf("α %v segment %d at %v J: price %v, finite difference %v (rel %g)",
						c.Alpha, k, budget, price, numeric, math.Abs(price-numeric)/numeric)
				}
			}
		}
	}
}

// TestShadowPriceNotNegative: no budget gets a negative price, not even
// −0, which the LP dual returned between the best state's saturation
// and MaxUsefulBudget (reapmon printed it as -0.00000 under α = 0).
func TestShadowPriceNotNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var configs []Config
	for _, alpha := range []float64{0, 1, 2} {
		c := DefaultConfig()
		c.Alpha = alpha
		configs = append(configs, c)
	}
	for i := 0; i < 30; i++ {
		configs = append(configs, randomPlanConfig(rng))
	}
	for ci, c := range configs {
		p, err := NewPlan(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range budgetSweep(c) {
			price, err := p.ShadowPrice(budget)
			if err != nil {
				t.Fatal(err)
			}
			if math.Signbit(price) {
				t.Fatalf("config %d at %v J: price %v has its sign bit set", ci, budget, price)
			}
		}
	}
}

func TestShadowPriceValidation(t *testing.T) {
	p, err := NewPlan(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{-1, math.NaN()} {
		if _, err := p.ShadowPrice(bad); !errors.Is(err, ErrBudgetNegative) {
			t.Errorf("ShadowPrice(%v) = %v, want ErrBudgetNegative", bad, err)
		}
	}
}

// oracleHull is NewPlan's envelope construction as first written: a
// weight vector, sort.SliceStable over a candidate slice, and a
// monotone chain into a second slice.
func oracleHull(c Config) []vertex {
	weights := c.weightVector(make([]float64, len(c.DPs)))
	verts := make([]vertex, 0, len(c.DPs)+1)
	verts = append(verts, vertex{budget: c.MinBudget(), value: 0, state: offState})
	for i, d := range c.DPs {
		verts = append(verts, vertex{budget: d.EnergyPerPeriod(c.Period), value: weights[i], state: i})
	}
	sort.SliceStable(verts, func(i, j int) bool {
		if !fpx.Eq(verts[i].budget, verts[j].budget) {
			return verts[i].budget < verts[j].budget
		}
		return verts[i].value > verts[j].value
	})
	hull := make([]vertex, 0, len(verts))
	hull = append(hull, verts[0])
	for _, v := range verts[1:] {
		if v.value <= hull[len(hull)-1].value {
			continue
		}
		for len(hull) >= 2 {
			a, b := hull[len(hull)-2], hull[len(hull)-1]
			if (b.value-a.value)*(v.budget-b.budget) <= (v.value-b.value)*(b.budget-a.budget) {
				hull = hull[:len(hull)-1]
				continue
			}
			break
		}
		hull = append(hull, v)
	}
	return hull
}

// tiedPlanConfig is randomPlanConfig with ties injected: design points
// that share another's power (equal budgets), its accuracy (equal
// weights) or both, an accuracy of exactly 0 or 1, or a power one ulp
// above the off power, whose budget can round onto the idle floor.
func tiedPlanConfig(rng *rand.Rand) Config {
	c := randomPlanConfig(rng)
	for i := range c.DPs {
		j := rng.Intn(len(c.DPs))
		switch rng.Intn(6) {
		case 0:
			c.DPs[i].Power = c.DPs[j].Power
		case 1:
			c.DPs[i].Accuracy = c.DPs[j].Accuracy
		case 2:
			c.DPs[i] = c.DPs[j]
		case 3:
			c.DPs[i].Accuracy = float64(rng.Intn(2))
		case 4:
			c.DPs[i].Power = math.Nextafter(c.POff, 1)
		}
	}
	return c
}

// requireOracleHull fails unless p, compiled from c, holds exactly the
// oracle's envelope: the same breakpoints and values bit for bit, and
// the same states.
func requireOracleHull(t *testing.T, name string, p *Plan, c Config) {
	t.Helper()
	want := oracleHull(c)
	if len(p.hull) != len(want) {
		t.Fatalf("%s: %d envelope vertices, oracle %d", name, len(p.hull), len(want))
	}
	for k, v := range p.hull {
		w := want[k]
		if math.Float64bits(v.budget) != math.Float64bits(w.budget) ||
			math.Float64bits(v.value) != math.Float64bits(w.value) || v.state != w.state {
			t.Fatalf("%s: vertex %d is %+v, oracle %+v", name, k, v, w)
		}
	}
	if !fpx.Eq(p.period, c.Period) || !fpx.Eq(p.pOff, c.POff) || p.nDPs != len(c.DPs) {
		t.Fatalf("%s: plan keeps period %v, off power %v, %d design points; config has %v, %v, %d",
			name, p.period, p.pOff, p.nDPs, c.Period, c.POff, len(c.DPs))
	}
}

// TestPlanHullMatchesOracle: NewPlan's in-place, slices-sorted envelope
// is bit-identical to the oracle's on random configurations with
// injected ties, on the paper's own, on one whose states lie exactly on
// a line (the chain pops collinear vertices), and on one 10,000-point
// configuration, whose heap scratch path and O(n log n) sort it also
// exercises.
func TestPlanHullMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	line := Config{Period: 1024, Alpha: 1}
	for k := 1; k <= 4; k++ {
		line.DPs = append(line.DPs, DesignPoint{Accuracy: float64(k) / 8, Power: float64(k) / 1024})
	}
	configs := []Config{DefaultConfig(), line}
	for i := 0; i < 20000; i++ {
		configs = append(configs, tiedPlanConfig(rng))
	}
	big := Config{Period: DefaultPeriod, POff: DefaultPOff, Alpha: 1.37}
	for i := 0; i < 10000; i++ {
		big.DPs = append(big.DPs, DesignPoint{
			Accuracy: float64(rng.Intn(1000)) / 1000,
			Power:    DefaultPOff + float64(1+rng.Intn(5000))*1e-6,
		})
	}
	configs = append(configs, big)
	for ci, c := range configs {
		p, err := NewPlan(c)
		if err != nil {
			t.Fatalf("config %d: %v", ci, err)
		}
		requireOracleHull(t, fmt.Sprintf("config %d (%d design points)", ci, len(c.DPs)), p, c)
	}
}

// BenchmarkPlanSolveInto measures the steady-state compiled solve: a
// binary search plus two multiplies, 0 allocs/op.
func BenchmarkPlanSolveInto(b *testing.B) {
	p, err := NewPlan(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var a Allocation
	budgets := [...]float64{0.05, 1.3, 4.5, 5.0, 7.7, 11.0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.SolveInto(budgets[i%len(budgets)], &a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCompile prices NewPlan, the once-per-configuration cost
// the parametric backend amortizes away.
func BenchmarkPlanCompile(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewPlan(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// The weight-hoisting micro-benchmarks price the satellite fix: the
// enumerate solver's value() used to call math.Pow inside the O(N²)
// vertex loop; the hoisted weight vector computes the pows once per
// solve and indexes thereafter.
func benchWeightConfig() Config {
	rng := rand.New(rand.NewSource(7))
	c := Config{Period: 3600, POff: DefaultPOff, Alpha: 1.7}
	for i := 0; i < 100; i++ {
		c.DPs = append(c.DPs, DesignPoint{
			Name:     "dp",
			Accuracy: rng.Float64(),
			Power:    1e-3 + rng.Float64()*2e-3,
		})
	}
	return c
}

// BenchmarkWeightsPerVertexPair is the old pattern: one pow per vertex
// visit across all N(N+1)/2 candidate pairs.
func BenchmarkWeightsPerVertexPair(b *testing.B) {
	c := benchWeightConfig()
	n := len(c.DPs)
	var sink float64
	for i := 0; i < b.N; i++ {
		for j := 0; j < n; j++ {
			for k := j + 1; k < n; k++ {
				sink += c.weight(j) + c.weight(k)
			}
		}
	}
	_ = sink
}

// BenchmarkWeightsHoisted is the fixed pattern: one weightVector call
// per solve, indexed lookups in the pair loop.
func BenchmarkWeightsHoisted(b *testing.B) {
	c := benchWeightConfig()
	n := len(c.DPs)
	weights := make([]float64, n)
	var sink float64
	for i := 0; i < b.N; i++ {
		c.weightVector(weights)
		for j := 0; j < n; j++ {
			for k := j + 1; k < n; k++ {
				sink += weights[j] + weights[k]
			}
		}
	}
	_ = sink
}

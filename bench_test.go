package reap

// One benchmark per table and figure of the paper's evaluation section,
// plus microbenchmarks for the on-device costs the paper quotes (Algorithm
// 1's 1.5 ms at 5 design points and 8 ms at 100; Table 2's per-stage MCU
// times). Absolute times come from the host CPU, not a 47 MHz CC2650 —
// the scaling shapes are what these benchmarks pin down.
//
// Run with: go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/eval"
	"repro/internal/har"
	"repro/internal/nn"
	"repro/internal/solar"
	"repro/internal/synth"
)

var (
	benchDSOnce sync.Once
	benchDS     *synth.Dataset
	benchDSErr  error
)

// benchCorpus shares the paper-scale corpus across benchmarks so corpus
// generation does not dominate the training measurements.
func benchCorpus(b *testing.B) *synth.Dataset {
	b.Helper()
	benchDSOnce.Do(func() {
		benchDS, benchDSErr = synth.NewDataset(synth.DefaultCorpusConfig())
	})
	if benchDSErr != nil {
		b.Fatal(benchDSErr)
	}
	return benchDS
}

// BenchmarkTable2 regenerates Table 2: train + price the five Pareto
// design points on the 14-user corpus.
func BenchmarkTable2(b *testing.B) {
	ds := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Table2On(ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3 regenerates Figure 3: the full 24-point design space.
func BenchmarkFigure3(b *testing.B) {
	ds := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure3On(ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4: DP1's hourly energy breakdown.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5a regenerates Figure 5(a)/(b): the α=1 energy sweep of
// expected accuracy and active time for REAP and the static points.
func BenchmarkFigure5a(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure5(cfg, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5b isolates the active-time normalization view (the same
// sweep re-rendered; measured separately so regressions in rendering do
// not hide in Figure5a).
func BenchmarkFigure5b(b *testing.B) {
	cfg := DefaultConfig()
	res, err := eval.Figure5(cfg, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res.Render() == "" {
			b.Fatal("empty render")
		}
	}
}

// BenchmarkFigure6 regenerates Figure 6: the α=2 normalized objective.
func BenchmarkFigure6(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure6(cfg, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7 regenerates Figure 7: the month-long solar case study
// across five α values and three baselines.
func BenchmarkFigure7(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeadline recomputes the abstract's headline gains.
func BenchmarkHeadline(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Headline(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDutyCycle measures the design-set ablation (on/off
// single-DP baselines versus the full Pareto set) over ten solar days.
func BenchmarkAblationDutyCycle(b *testing.B) {
	tr, err := solar.September2015()
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	budgets := tr.Hours[:240]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.AblationOn(cfg, budgets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolve5DPs is Algorithm 1 at the paper's operating point: five
// design points (1.5 ms on the CC2650 prototype).
func BenchmarkSolve5DPs(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(cfg, 5.0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolve100DPs is the paper's scaling claim: 100 design points
// stayed under 8 ms on the MCU, ~5x the 5-DP cost.
func BenchmarkSolve100DPs(b *testing.B) {
	cfg := core.Config{Period: 3600, POff: core.DefaultPOff, Alpha: 1}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		cfg.DPs = append(cfg.DPs, core.DesignPoint{
			Name:     "dp",
			Accuracy: 0.5 + rng.Float64()*0.5,
			Power:    1e-3 + rng.Float64()*2e-3,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(cfg, 5.0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveEnumerate5DPs measures the independent O(N²) solver at
// the same operating point.
func BenchmarkSolveEnumerate5DPs(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveEnumerate(cfg, 5.0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolvePlan5DPs measures Solve, the compiled parametric plan,
// at the paper's operating point (compile amortized across calls by
// the core.PlanFor fingerprint memo).
func BenchmarkSolvePlan5DPs(b *testing.B) {
	ctx := context.Background()
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(ctx, cfg, 5.0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolvePlan100DPs is the scaling companion of
// BenchmarkSolve100DPs: the envelope compiles once, after which a solve
// is a binary search over at most 101 breakpoints.
func BenchmarkSolvePlan100DPs(b *testing.B) {
	ctx := context.Background()
	cfg := core.Config{Period: 3600, POff: core.DefaultPOff, Alpha: 1}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		cfg.DPs = append(cfg.DPs, core.DesignPoint{
			Name:     "dp",
			Accuracy: 0.5 + rng.Float64()*0.5,
			Power:    1e-3 + rng.Float64()*2e-3,
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(ctx, cfg, 5.0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControllerStep measures one closed-loop hour: budget folding,
// plan solve and accounting.
func BenchmarkControllerStep(b *testing.B) {
	ctl := newTestController(b, DefaultConfig(), 20, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alloc, err := ctl.Step(4.5)
		if err != nil {
			b.Fatal(err)
		}
		if err := ctl.Report(alloc.Energy(ctl.Config())); err != nil {
			b.Fatal(err)
		}
	}
}

// batchRequests builds n independent solve requests spanning the full
// budget range, the workload shape of a fleet re-planning tick.
func batchRequests(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Budget: 11.0 * float64(i) / float64(n)}
	}
	return reqs
}

// BenchmarkSolveBatch compares a sequential loop of Solve calls against
// the worker-pool batch layer, both on the plan, at the
// daemon's 64-item batch (one pool chunk, so SolveBatch runs it inline)
// and at fleet scales (1k and 10k devices). The ratio of the two is the
// batch API's speedup (DESIGN.md, "Fleet/batch layer").
func BenchmarkSolveBatch(b *testing.B) {
	ctx := context.Background()
	cfg := DefaultConfig()
	for _, n := range []int{64, 1000, 10000} {
		reqs := batchRequests(n)
		b.Run(fmt.Sprintf("sequential/%d", n), func(b *testing.B) {
			results := make([]Result, len(reqs))
			for i := 0; i < b.N; i++ {
				for j, req := range reqs {
					alloc, err := Solve(ctx, cfg, req.Budget)
					if err != nil {
						b.Fatal(err)
					}
					results[j] = Result{Allocation: alloc}
				}
			}
		})
		b.Run(fmt.Sprintf("parallel/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, res := range SolveBatch(ctx, reqs) {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
				}
			}
		})
	}
}

// correlatedBudgets models a geographically clustered fleet: devices in
// the same cluster (same weather cell, same panel tilt) harvest
// near-identical energy, differing by a few microjoules.
func correlatedBudgets(n int) []float64 {
	budgets := make([]float64, n)
	for i := range budgets {
		cluster := i % 24
		base := 0.5 + 9.0*float64(cluster)/24.0
		budgets[i] = base + 1e-6*float64(i%7)
	}
	return budgets
}

// BenchmarkFleetStepAll measures one fleet re-planning tick (stateful
// sessions, battery + accounting) at 1k and 10k devices under
// correlated budgets, across the solver backends that make up the
// committed benchmark trajectory (BENCH_solve.json in CI):
//
//   - default: NewFleet with no options — the compiled parametric
//     plan, solving straight into each controller's reused allocation
//     (default/10000 versus uncached-simplex/10000 is the headline,
//     ≥3x on one core);
//   - sequential-uncached-plan: the same without the worker pool,
//     isolating pool overhead at plan-solve speeds;
//   - uncached-simplex / uncached-enumerate: every device runs the
//     iterative LP solver on the pooled path.
//
// The variant names predate the solve cache's removal and are kept so
// BENCH_solve.json rows stay comparable across revisions.
func BenchmarkFleetStepAll(b *testing.B) {
	ctx := context.Background()
	variants := []struct {
		name string
		opts []Option
	}{
		{"sequential-uncached-plan", []Option{WithWorkers(1)}},
		{"default", nil},
		{"uncached-simplex", []Option{WithSolver(SolverSimplex)}},
		{"uncached-enumerate", []Option{WithSolver(SolverEnumerate)}},
	}
	for _, n := range []int{1000, 10000} {
		budgets := correlatedBudgets(n)
		for _, v := range variants {
			b.Run(fmt.Sprintf("%s/%d", v.name, n), func(b *testing.B) {
				opts := append([]Option{WithBattery(20, 100)}, v.opts...)
				fleet, err := NewFleet(n, opts...)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := fleet.StepAll(ctx, budgets); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkNewFleet measures building a 32,768-device fleet: one
// prototype controller stamped into one slab, so allocs/op stays flat
// in the fleet size, and reapd builds one such fleet of all its
// devices. The size stays fixed so that the row keeps its name in
// BENCH_solve.json.
func BenchmarkNewFleet(b *testing.B) {
	const n = 32768
	b.Run(fmt.Sprint(n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewFleet(n, WithBattery(0, 0)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchHarvest and benchConsumption close Fleet.Run's loop with fixed
// correlated budgets and exact execution, keeping the benchmark's
// allocations down to what the fleet layer itself does.
type benchHarvest struct{ budgets []float64 }

func (h benchHarvest) Budgets(step int, dst []float64) error {
	copy(dst, h.budgets)
	return nil
}

type benchConsumption struct{ cfg Config }

func (m benchConsumption) Consumed(step int, allocs []Allocation, dst []float64) error {
	for i := range dst {
		dst[i] = allocs[i].Energy(m.cfg)
	}
	return nil
}

// BenchmarkFleetRunClosedLoop measures one full closed-loop period
// (budgets → StepAll → consumption → ReportAll) per op at 1000 devices
// on the plan path. Run reuses one allocation buffer across
// steps and every controller solves into its retained Active slice, so
// steady-state allocs/op stays O(1) per period — not O(devices).
func BenchmarkFleetRunClosedLoop(b *testing.B) {
	const n = 1000
	fleet, err := NewFleet(n, WithBattery(20, 100))
	if err != nil {
		b.Fatal(err)
	}
	src := benchHarvest{budgets: correlatedBudgets(n)}
	model := benchConsumption{cfg: DefaultConfig()}
	// One warm-up step grows every buffer to steady state.
	if err := fleet.Run(context.Background(), 1, src, model, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := fleet.Run(context.Background(), b.N, src, model, nil); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFeatureExtractionDP1 is Table 2's feature-generation stage for
// the richest design point (paper: 0.83 ms accel + 3.83 ms stretch on the
// MCU).
func BenchmarkFeatureExtractionDP1(b *testing.B) {
	w := synth.Generate(synth.NewUserProfile(0, 1), synth.Walk, rand.New(rand.NewSource(2)))
	cfg := har.PaperFive()[0].Features
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Extract(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNNInference is Table 2's classifier stage (paper: ~1 ms).
func BenchmarkNNInference(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	net, err := nn.New([]int{30, 12, 7}, nn.ReLU, nn.Softmax, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 30)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Predict(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFFT16 is the stretch-sensor feature kernel (paper: 3.83 ms on
// the MCU, the dominant MCU stage).
func BenchmarkFFT16(b *testing.B) {
	w := synth.Generate(synth.NewUserProfile(0, 1), synth.Walk, rand.New(rand.NewSource(4)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dsp.RealFFTMagnitudes(w.Stretch, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShadowPrice measures the marginal value of a joule read off
// the compiled plan: a binary search and one slope, 0 allocs/op.
func BenchmarkShadowPrice(b *testing.B) {
	p, err := core.NewPlan(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.ShadowPrice(5.0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLookahead24h measures the joint 24-hour planning LP
// (149 variables, 73 constraints with the five paper design points).
func BenchmarkLookahead24h(b *testing.B) {
	cfg := DefaultConfig()
	tr, err := solar.September2015()
	if err != nil {
		b.Fatal(err)
	}
	day := tr.Hours[24:48]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Lookahead(cfg, 20, 200, day); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuantizedInference compares with BenchmarkNNInference: the
// int8 path of the precision-knob extension.
func BenchmarkQuantizedInference(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	net, err := nn.New([]int{30, 12, 7}, nn.ReLU, nn.Softmax, rng)
	if err != nil {
		b.Fatal(err)
	}
	q, err := nn.Quantize(net)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 30)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Predict(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGoertzel6 prices the partial-spectrum stretch feature.
func BenchmarkGoertzel6(b *testing.B) {
	w := synth.Generate(synth.NewUserProfile(0, 1), synth.Walk, rand.New(rand.NewSource(6)))
	bins := []int{0, 1, 2, 3, 4, 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dsp.GoertzelMagnitudes(w.Stretch, 16, bins); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonthClosedLoop measures a full simulated September with the
// runtime controller (720 re-optimizations plus accounting).
func BenchmarkMonthClosedLoop(b *testing.B) {
	tr, err := solar.September2015()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl := newTestController(b, DefaultConfig(), 20, 100)
		for _, h := range tr.Hours {
			alloc, err := ctl.Step(h)
			if err != nil {
				b.Fatal(err)
			}
			if err := ctl.Report(alloc.Energy(ctl.Config())); err != nil {
				b.Fatal(err)
			}
		}
	}
}

package sim

import (
	"context"
	"math"
	"testing"

	"repro"
)

// variant reruns a scenario on the solver under test, keeping
// everything else (seed, climate, consumption model) identical.
// Per-device solver overrides (mixed-fleet) stay in place — those
// devices are simply identical across variants.
func variant(t *testing.T, sc Scenario, solver string) *Result {
	t.Helper()
	sc.Solver = solver
	res, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatalf("%s/%s: %v", sc.Name, solver, err)
	}
	return res
}

func allocOf(r *StepRecord) reap.Allocation {
	return reap.Allocation{Active: r.Active, Off: r.OffS, Dead: r.DeadS}
}

// TestDifferentialBackends runs every corpus scenario through the
// simplex, enumerate and plan backends and requires the
// closed loops to agree step for step: same LP budgets, same planned
// energy, same objective, same battery trajectory. Simplex is the
// reference; enumerate and the compiled parametric plan must each track
// it. Per-step solver differences are at floating-point noise level and
// the loop is contractive, so the tolerance holds over the whole
// horizon.
func TestDifferentialBackends(t *testing.T) {
	const tol = 1e-6
	for _, sc := range corpusScenarios(t) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			a := variant(t, sc, reap.SolverSimplex)
			for _, solver := range []string{reap.SolverEnumerate, reap.SolverPlan} {
				b := variant(t, sc, solver)
				if len(a.Trace.Records) != len(b.Trace.Records) {
					t.Fatalf("%s: record counts differ: %d vs %d", solver, len(a.Trace.Records), len(b.Trace.Records))
				}
				for i := range a.Trace.Records {
					ra, rb := &a.Trace.Records[i], &b.Trace.Records[i]
					cfg := a.Configs[ra.Device]
					if d := math.Abs(ra.SolveBudgetJ - rb.SolveBudgetJ); d > tol {
						t.Fatalf("%s step %d dev %d: LP budgets diverged by %g", solver, ra.Step, ra.Device, d)
					}
					if d := math.Abs(ra.PlannedJ - rb.PlannedJ); d > tol {
						t.Fatalf("%s step %d dev %d: planned energy diverged by %g", solver, ra.Step, ra.Device, d)
					}
					ja := allocOf(ra).Objective(cfg)
					jb := allocOf(rb).Objective(cfg)
					if d := math.Abs(ja - jb); d > tol {
						t.Fatalf("%s step %d dev %d: objectives diverged by %g (%v vs %v)",
							solver, ra.Step, ra.Device, d, ja, jb)
					}
					if d := math.Abs(ra.BatteryJ - rb.BatteryJ); d > 1e-5 {
						t.Fatalf("%s step %d dev %d: battery trajectories diverged by %g", solver, ra.Step, ra.Device, d)
					}
				}
			}
		})
	}
}

// TestDifferentialSummariesClose cross-checks the aggregate metrics of
// the backends: the enumerate and plan backends must report the same
// fleet-level utility, accuracy, time shares and neutrality residual as
// the simplex reference, and the same counts. Each metric averages or
// totals per-step quantities that TestDifferentialBackends holds within
// 1e-6 of the reference, so the same tolerance bounds the summaries.
func TestDifferentialSummariesClose(t *testing.T) {
	const tol = 1e-6
	for _, sc := range corpusScenarios(t) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			ref := variant(t, sc, reap.SolverSimplex).Summary
			for _, solver := range []string{reap.SolverEnumerate, reap.SolverPlan} {
				got := variant(t, sc, solver).Summary
				if got.Devices != ref.Devices || got.Steps != ref.Steps || got.FaultCount != ref.FaultCount {
					t.Fatalf("%s: counts differ: devices %d/%d, steps %d/%d, faults %d/%d", solver,
						got.Devices, ref.Devices, got.Steps, ref.Steps, got.FaultCount, ref.FaultCount)
				}
				for _, m := range []struct {
					name     string
					ref, got float64
				}{
					{"mean utility", ref.MeanUtility, got.MeanUtility},
					{"mean accuracy", ref.MeanAccuracy, got.MeanAccuracy},
					{"active fraction", ref.ActiveFraction, got.ActiveFraction},
					{"dead fraction", ref.DeadFraction, got.DeadFraction},
					{"neutrality error", ref.NeutralityError, got.NeutralityError},
				} {
					if d := math.Abs(m.ref - m.got); d > tol {
						t.Fatalf("%s: %s moved by %g from the simplex reference", solver, m.name, d)
					}
				}
			}
		})
	}
}

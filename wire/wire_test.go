package wire_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	reap "repro"
	"repro/wire"
)

func ptr(v float64) *float64 { return &v }

// TestRoundTrip marshals each request/response type and strict-decodes
// it back: the schema must survive its own wire format exactly. Every
// type a client or server serializes appears here, so adding a field
// without JSON-compatible types breaks this test, not production.
func TestRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		in   any
		out  any
	}{
		{"solve_request", &wire.SolveRequest{
			V:       wire.Version,
			BudgetJ: 5.25,
			Solver:  "plan",
			Config: &wire.Config{
				PeriodS: 1800,
				POffW:   ptr(0),
				Alpha:   ptr(2),
				DesignPoints: []wire.DesignPoint{
					{Name: "DP1", Accuracy: 0.9, PowerW: 2e-3},
					{Accuracy: 0.5, PowerW: 1e-3},
				},
			},
		}, &wire.SolveRequest{}},
		{"solve_response", &wire.SolveResponse{
			V:                wire.Version,
			Allocation:       wire.Allocation{ActiveS: []float64{1, 2, 3}, OffS: 4, DeadS: 0},
			EnergyJ:          1.5,
			ExpectedAccuracy: 0.82,
		}, &wire.SolveResponse{}},
		{"batch_request", &wire.BatchSolveRequest{
			V: wire.Version,
			Items: []wire.SolveItem{
				{BudgetJ: 1},
				{BudgetJ: 2, Solver: "simplex"},
			},
		}, &wire.BatchSolveRequest{}},
		{"batch_response", &wire.BatchSolveResponse{
			V: wire.Version,
			Results: []wire.SolveResult{
				{Solve: &wire.SolveResponse{V: wire.Version, Allocation: wire.Allocation{ActiveS: []float64{1}}}},
				{Error: &wire.Error{Code: wire.CodeInfeasible, Message: "no feasible schedule"}},
			},
		}, &wire.BatchSolveResponse{}},
		{"report_request", &wire.ReportRequest{
			V:       wire.Version,
			Reports: []wire.DeviceReport{{Device: 3, ConsumedJ: 0.25}},
		}, &wire.ReportRequest{}},
		{"report_response", &wire.ReportResponse{V: wire.Version, Accepted: 7}, &wire.ReportResponse{}},
		{"telemetry_event", &wire.TelemetryEvent{
			V: wire.Version, Device: 12, HarvestJ: ptr(4.5), ConsumedJ: ptr(1.25),
		}, &wire.TelemetryEvent{}},
		{"telemetry_result", &wire.TelemetryResult{
			V: wire.Version, Device: 12,
			Allocation: &wire.Allocation{ActiveS: []float64{0.5}, OffS: 1},
		}, &wire.TelemetryResult{}},
		{"stats_response", &wire.StatsResponse{
			V: wire.Version, Devices: 1024, Shards: 8, Solves: 10, Steps: 3,
			Reports: 2, AlphaSets: 1, RateLimited: 1, Shed: 4, Panics: 2,
			ShardsQuarantined: 1, TotalBatteryJ: 512.5, Draining: true,
			Journal: &wire.JournalStats{Seq: 42, SnapshotSeq: 30, Replayed: 12, Appended: 5, TornTail: true, Compactions: 2, FsyncPolicy: "interval"},
		}, &wire.StatsResponse{}},
		{"alpha_request", &wire.AlphaRequest{V: wire.Version, Device: 9, Alpha: 0.5}, &wire.AlphaRequest{}},
		{"alpha_response", &wire.AlphaResponse{V: wire.Version, Device: 9, Alpha: 0.5}, &wire.AlphaResponse{}},
		{"healthz_response", &wire.HealthzResponse{V: wire.Version, Status: wire.HealthDraining}, &wire.HealthzResponse{}},
		{"error_response", &wire.ErrorResponse{
			V:     wire.Version,
			Error: wire.Error{Code: wire.CodeRateLimited, Message: "tenant over budget"},
		}, &wire.ErrorResponse{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := json.Marshal(tc.in)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			if err := wire.DecodeStrict(strings.NewReader(string(raw)), tc.out); err != nil {
				t.Fatalf("strict decode of own output %s: %v", raw, err)
			}
			if !reflect.DeepEqual(tc.in, tc.out) {
				t.Fatalf("round trip drifted:\n in: %#v\nout: %#v", tc.in, tc.out)
			}
		})
	}
}

func TestCheckVersion(t *testing.T) {
	if err := wire.CheckVersion(wire.Version); err != nil {
		t.Fatalf("current version rejected: %v", err)
	}
	for _, v := range []int{0, -1, wire.Version + 1} {
		err := wire.CheckVersion(v)
		var we *wire.Error
		if !errors.As(err, &we) || we.Code != wire.CodeUnknownVersion {
			t.Fatalf("CheckVersion(%d) = %v, want CodeUnknownVersion", v, err)
		}
	}
}

// TestCodeForError pins the sentinel-taxonomy → wire-code mapping: a
// stable contract clients branch on.
func TestCodeForError(t *testing.T) {
	cases := []struct {
		err  error
		code string
	}{
		{fmt.Errorf("wrapped: %w", reap.ErrInvalidConfig), wire.CodeInvalidConfig},
		{fmt.Errorf("wrapped: %w", reap.ErrBudgetNegative), wire.CodeBudgetNegative},
		{fmt.Errorf("wrapped: %w", reap.ErrInfeasible), wire.CodeInfeasible},
		{fmt.Errorf("wrapped: %w", reap.ErrSolverFailure), wire.CodeSolverFailure},
		{fmt.Errorf("wrapped: %w", reap.ErrUnknownSolver), wire.CodeUnknownSolver},
		{context.Canceled, wire.CodeDraining},
		{context.DeadlineExceeded, wire.CodeDeadlineExceeded},
		{fmt.Errorf("solve: %w", context.DeadlineExceeded), wire.CodeDeadlineExceeded},
		{errors.New("mystery"), wire.CodeInternal},
	}
	for _, tc := range cases {
		if got := wire.CodeForError(tc.err); got != tc.code {
			t.Errorf("CodeForError(%v) = %q, want %q", tc.err, got, tc.code)
		}
	}
	if got := wire.CodeForError(nil); got != "" {
		t.Errorf("CodeForError(nil) = %q, want empty", got)
	}
}

// TestAsError: a *wire.Error anywhere in the chain passes through
// unmodified; anything else is classified by CodeForError.
func TestAsError(t *testing.T) {
	orig := wire.Errorf(wire.CodeUnknownDevice, "device 99")
	if got := wire.AsError(fmt.Errorf("handling: %w", orig)); got != orig {
		t.Fatalf("AsError did not pass through the wire error: %v", got)
	}
	got := wire.AsError(fmt.Errorf("x: %w", reap.ErrInfeasible))
	if got.Code != wire.CodeInfeasible {
		t.Fatalf("AsError classified %q, want infeasible", got.Code)
	}
}

var cfgSink reap.Config

// TestConfigToReapDefaults: the wire config's absent-field semantics —
// zero/omitted selects the paper default, explicit zero stays zero, and
// a negative period reaches validation instead of the default.
func TestConfigToReapDefaults(t *testing.T) {
	var nilCfg *wire.Config
	cfg := nilCfg.ToReap()
	def, err := reap.NewConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Period != def.Period || cfg.POff != def.POff || cfg.Alpha != def.Alpha ||
		len(cfg.DPs) != len(def.DPs) {
		t.Fatalf("nil wire config = %+v, want paper defaults %+v", cfg, def)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default conversion invalid: %v", err)
	}

	explicit := (&wire.Config{POffW: ptr(0), Alpha: ptr(0)}).ToReap()
	if explicit.POff != 0 || explicit.Alpha != 0 {
		t.Fatalf("explicit zeros overridden: %+v", explicit)
	}
	if explicit.Period != def.Period {
		t.Fatalf("omitted period not defaulted: %v", explicit.Period)
	}

	// Each call hands out design points of its own, and a config that
	// brings its own builds no defaults.
	cfg.DPs[0].Accuracy = 0
	if again := nilCfg.ToReap(); again.DPs[0].Accuracy != def.DPs[0].Accuracy {
		t.Fatalf("a caller's edit leaked into the next default config: %+v", again.DPs[0])
	}
	own := &wire.Config{DesignPoints: []wire.DesignPoint{{Accuracy: 0.9, PowerW: 1e-3}}}
	if n := testing.AllocsPerRun(100, func() { cfgSink = own.ToReap() }); n != 1 {
		t.Fatalf("ToReap with its own design points: %v allocations, want 1 (its DPs)", n)
	}

	negative := (&wire.Config{PeriodS: -60}).ToReap()
	if negative.Period != -60 {
		t.Fatalf("negative period replaced: %v", negative.Period)
	}
	if err := negative.Validate(); !errors.Is(err, reap.ErrInvalidConfig) {
		t.Fatalf("negative period: Validate() = %v, want ErrInvalidConfig", err)
	}
}

// TestToRequestsMatchesToRequest: the batch conversion gives every item
// the request ToRequest would, and the design points it carves out of
// one slab are clipped to each item, so an append to one item's cannot
// reach its neighbour's.
func TestToRequestsMatchesToRequest(t *testing.T) {
	own := func(acc ...float64) *wire.Config {
		c := &wire.Config{Alpha: ptr(1.5)}
		for i, a := range acc {
			c.DesignPoints = append(c.DesignPoints, wire.DesignPoint{Name: fmt.Sprintf("p%d", i), Accuracy: a, PowerW: 1e-3 * float64(i+1)})
		}
		return c
	}
	items := []wire.SolveItem{
		{BudgetJ: 1, Config: own(0.9, 0.8)},
		{BudgetJ: 2},
		{BudgetJ: 3, Config: own(0.7), Solver: reap.SolverSimplex},
		{BudgetJ: 4, Config: &wire.Config{PeriodS: 60}},
		{BudgetJ: 5, Config: own(0.6, 0.5, 0.4)},
	}
	reqs := wire.ToRequests(items)
	for i, it := range items {
		if want := it.ToRequest(); !reflect.DeepEqual(reqs[i], want) {
			t.Fatalf("item %d: ToRequests gives %+v, ToRequest %+v", i, reqs[i], want)
		}
	}
	for _, i := range []int{0, 2} {
		dps := reqs[i].Config.DPs
		if cap(dps) != len(dps) {
			t.Fatalf("item %d: design points have capacity %d for length %d", i, cap(dps), len(dps))
		}
		_ = append(dps, reap.DesignPoint{Name: "grown"})
	}
	if name := reqs[4].Config.DPs[0].Name; name != "p0" {
		t.Fatalf("an append to one item's design points overwrote the next's: %q", name)
	}
}

// TestSolveRoundTripThroughWire drives a real solve through the wire
// types end to end: config → reap → solve → wire allocation → back,
// checking the reported energy/accuracy match what the solver's own
// accessors compute.
func TestSolveRoundTripThroughWire(t *testing.T) {
	item := wire.SolveItem{BudgetJ: 5}
	res := reap.SolveBatch(context.Background(), []reap.Request{item.ToRequest()})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	cfg := item.Config.ToReap()
	resp := wire.NewSolveResponse(cfg, res[0].Allocation)
	if resp.V != wire.Version {
		t.Fatalf("response version %d", resp.V)
	}
	if math.Abs(resp.EnergyJ-res[0].Allocation.Energy(cfg)) > 1e-12 {
		t.Fatalf("energy %v != %v", resp.EnergyJ, res[0].Allocation.Energy(cfg))
	}
	back := reap.Allocation{Active: resp.Allocation.ActiveS, Off: resp.Allocation.OffS, Dead: resp.Allocation.DeadS}
	if math.Abs(back.Objective(cfg)-res[0].Allocation.Objective(cfg)) > 1e-12 {
		t.Fatalf("allocation drifted through the wire")
	}
	if resp.EnergyJ > item.BudgetJ+1e-9 {
		t.Fatalf("allocation spends %v J of a %v J budget", resp.EnergyJ, item.BudgetJ)
	}
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	reap "repro"
	"repro/wire"
)

// defaultItems is a 64-item batch on the paper's configuration with
// budgets uniform over [0, 11] J: the daemon's hot shape.
func defaultItems(rng *rand.Rand) []wire.SolveItem {
	items := make([]wire.SolveItem, 64)
	for i := range items {
		items[i].BudgetJ = 11 * rng.Float64()
	}
	return items
}

// distinctItems is a 64-item batch whose items each carry their own
// configuration: α in [0.5, 2], Table 2 accuracies ±2% and powers ±5%.
func distinctItems(rng *rand.Rand) []wire.SolveItem {
	items := defaultItems(rng)
	for i := range items {
		alpha := 0.5 + 1.5*rng.Float64()
		cfg := &wire.Config{Alpha: &alpha}
		for _, dp := range reap.PaperDesignPoints() {
			cfg.DesignPoints = append(cfg.DesignPoints, wire.DesignPoint{
				Name:     dp.Name,
				Accuracy: dp.Accuracy * (1 + 0.04*(rng.Float64()-0.5)),
				PowerW:   dp.Power * (1 + 0.10*(rng.Float64()-0.5)),
			})
		}
		items[i].Config = cfg
	}
	return items
}

// TestBatchSolveResponseBytes pins the batch answer byte for byte: for
// each body, the handler's response equals json.Encoder's encoding of a
// BatchSolveResponse built item by item, each item refused by
// wire.CheckSolver or solved as a batch of its own, and rendered with
// wire.NewSolveResponse or wire.AsError.
func TestBatchSolveResponseBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	period, poff := 1800.0, 0.0
	mixed := defaultItems(rng)[:8]
	mixed[1].BudgetJ = -1
	mixed[2].Solver = "nope"
	mixed[3].Config = &wire.Config{PeriodS: period, POffW: &poff}
	mixed[4].Config = &wire.Config{PeriodS: -3600}
	mixed[5].Solver = reap.SolverSimplex
	mixed[6] = distinctItems(rng)[0]
	bodies := map[string][]wire.SolveItem{
		"default":  defaultItems(rng),
		"distinct": distinctItems(rng),
		"mixed":    mixed,
	}

	svc := newTestService(t, Config{})
	h := svc.Handler()
	for name, items := range bodies {
		t.Run(name, func(t *testing.T) {
			want := wire.BatchSolveResponse{V: wire.Version, Results: make([]wire.SolveResult, len(items))}
			for i, it := range items {
				if err := wire.CheckSolver(it.Solver); err != nil {
					want.Results[i].Error = wire.AsError(err)
					continue
				}
				req := it.ToRequest()
				res := reap.SolveBatch(context.Background(), []reap.Request{req})[0]
				if res.Err != nil {
					want.Results[i].Error = wire.AsError(res.Err)
					continue
				}
				want.Results[i].Solve = wire.NewSolveResponse(req.Config, res.Allocation)
			}
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(&want); err != nil {
				t.Fatal(err)
			}

			rec := do(t, h, http.MethodPost, "/v1/batch-solve",
				&wire.BatchSolveRequest{V: wire.Version, Items: items})
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			if got := rec.Body.Bytes(); !bytes.Equal(got, buf.Bytes()) {
				t.Fatalf("batch answer differs from the item-by-item encoding\n got %s\nwant %s", got, buf.Bytes())
			}
		})
	}
}

// BenchmarkBatchSolveHandler times one 64-item /v1/batch-solve request
// through the service handler, decode to encoded answer: "hot" carries
// no configs, "distinct" one configuration per item, all memoized after
// the first request. CI gates its allocs/op against BENCH_solve.json.
func BenchmarkBatchSolveHandler(b *testing.B) {
	for _, bc := range []struct {
		name  string
		items func(*rand.Rand) []wire.SolveItem
	}{{"hot", defaultItems}, {"distinct", distinctItems}} {
		b.Run(bc.name, func(b *testing.B) {
			body := mustMarshalB(b, &wire.BatchSolveRequest{V: wire.Version, Items: bc.items(rand.New(rand.NewSource(1)))})
			svc, err := New(Config{Devices: 16})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			h := svc.Handler()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/batch-solve", bytes.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
		})
	}
}

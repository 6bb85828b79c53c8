package wire_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	reap "repro"
	"repro/wire"
)

// benchBody is one 64-op request shaped like a perfbench workload's.
type benchBody struct {
	name string
	raw  []byte
	new  func() any
}

// benchBodies builds a solve-hot body (default config, budgets
// U[0,11] J), a solve-distinct body (alpha 0.5-2, Table 2 accuracy
// ±2%, power ±5%) and an ingest body (device-sorted reports). It and
// BenchmarkDecodeStrict use only API that predates the codec, and
// BenchmarkAppendBatchSolve only API as old as AppendBatchSolve, so the
// file can be copied into an older checkout to benchmark both sides of
// a change.
func benchBodies(b *testing.B) []benchBody {
	rng := rand.New(rand.NewSource(1))
	hot := make([]wire.SolveItem, 64)
	distinct := make([]wire.SolveItem, 64)
	reports := make([]wire.DeviceReport, 64)
	for i := range hot {
		hot[i].BudgetJ = 11 * rng.Float64()
		distinct[i].BudgetJ = 11 * rng.Float64()
		alpha := 0.5 + 1.5*rng.Float64()
		cfg := &wire.Config{Alpha: &alpha}
		for _, dp := range reap.PaperDesignPoints() {
			cfg.DesignPoints = append(cfg.DesignPoints, wire.DesignPoint{Name: dp.Name,
				Accuracy: dp.Accuracy * (1 + 0.04*(rng.Float64()-0.5)),
				PowerW:   dp.Power * (1 + 0.10*(rng.Float64()-0.5))})
		}
		distinct[i].Config = cfg
		reports[i] = wire.DeviceReport{Device: 4096*i + rng.Intn(4096), ConsumedJ: 2 * rng.Float64()}
	}
	marshal := func(v any) []byte {
		raw, err := json.Marshal(v)
		if err != nil {
			b.Fatal(err)
		}
		return raw
	}
	return []benchBody{
		{"hot", marshal(&wire.BatchSolveRequest{V: wire.Version, Items: hot}), func() any { return new(wire.BatchSolveRequest) }},
		{"distinct", marshal(&wire.BatchSolveRequest{V: wire.Version, Items: distinct}), func() any { return new(wire.BatchSolveRequest) }},
		{"report", marshal(&wire.ReportRequest{V: wire.Version, Reports: reports}), func() any { return new(wire.ReportRequest) }},
	}
}

func BenchmarkDecodeStrict(b *testing.B) {
	for _, body := range benchBodies(b) {
		b.Run(body.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body.raw)))
			for i := 0; i < b.N; i++ {
				if err := wire.DecodeStrict(bytes.NewReader(body.raw), body.new()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAppendBatchSolve appends the answers to the hot and distinct
// bodies, solved once outside the timer, into a reused buffer: the
// encoder's share of a /v1/batch-solve request.
func BenchmarkAppendBatchSolve(b *testing.B) {
	for _, body := range benchBodies(b)[:2] {
		b.Run(body.name, func(b *testing.B) {
			var req wire.BatchSolveRequest
			if err := wire.DecodeStrict(bytes.NewReader(body.raw), &req); err != nil {
				b.Fatal(err)
			}
			reqs := wire.ToRequests(req.Items)
			results := reap.SolveBatch(context.Background(), reqs)
			buf, err := wire.AppendBatchSolve(nil, reqs, results)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if buf, err = wire.AppendBatchSolve(buf[:0], reqs, results); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package wire_test

import (
	"bytes"
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
// ±2%, power ±5%) and an ingest body (device-sorted reports). It uses
// only API that predates the codec, so the same file benchmarks
// DecodeStrict before and after it.
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

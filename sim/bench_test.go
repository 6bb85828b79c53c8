package sim

import (
	"context"
	"testing"
)

// BenchmarkRun times one Run of each world perfbench's fleet-sim
// workload runs, at that workload's 96 devices. Each world runs once
// before the timer starts, so the plan memo is warm and allocs/op does
// not depend on b.N; CI's bench-smoke step gates that count against
// BENCH_solve.json.
func BenchmarkRun(b *testing.B) {
	for _, name := range []string{"clear-month", "cloudy-bursts", "fault-storm", "fleet-churn", "geo-fleet", "seasonal-aging"} {
		b.Run(name, func(b *testing.B) {
			sc := mustScenario(b, name)
			sc.Devices = 96
			ctx := context.Background()
			if _, err := Run(ctx, sc); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(ctx, sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

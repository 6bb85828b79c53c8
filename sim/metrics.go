package sim

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Summary aggregates a run into the closed-loop metrics the paper's
// claims are about. All energies are joules summed over the whole fleet
// and horizon. Beyond the fleet-level means, Summary reports full
// per-device-step distributions (nearest-rank p50/p90/p99, matching
// cmd/reapload's percentile convention) so a regression confined to the
// tail — one region starving, one population browning out — cannot hide
// behind an unchanged mean. The JSON encoding of a Summary is the
// per-scenario metrics document reapsim emits and CI archives.
type Summary struct {
	Devices, Steps int

	// TotalHarvestJ is the energy actually harvested; TotalBudgetJ what
	// the controllers were told (differs under forecast-driven budgets);
	// TotalPlannedJ what the plans would consume; TotalConsumedJ what
	// execution drew.
	TotalHarvestJ, TotalBudgetJ, TotalPlannedJ, TotalConsumedJ float64

	// BatteryStartJ and BatteryEndJ are fleet-wide battery charge at the
	// horizon ends.
	BatteryStartJ, BatteryEndJ float64

	// NeutralityError is the relative residual of the controllers'
	// energy ledger, |budget − consumed − Δbattery| / budget: zero for a
	// perfectly energy-neutral run; growing with battery-overflow
	// losses, brownout clamping and end-of-horizon accounting carry.
	NeutralityError float64

	// NeutralityErrDist is the distribution of the per-device-step
	// neutrality residual |b − c − Δbattery| / max(b, c, 1 nJ) — the
	// step-local version of NeutralityError, whose p90/p99 expose
	// overflow and clamping episodes the horizon total averages away.
	NeutralityErrDist Distribution

	// MeanAccuracy and MeanUtility average the per-device-hour expected
	// accuracy and its fault-degraded counterpart. ActiveFraction and
	// DeadFraction are time shares of the whole fleet-horizon. Offline
	// (churned-out) device-hours count as dead time with zero utility —
	// the fleet-operator's view, not the per-device one.
	MeanAccuracy, MeanUtility    float64
	ActiveFraction, DeadFraction float64

	// UtilityDist is the distribution of per-device-step utility.
	UtilityDist Distribution

	// UtilityHist and NeutralityErrHist bucket the same samples into 20
	// equal bins over [0, 1] (neutrality residuals above 1 land in the
	// last bucket), for the per-scenario metrics artifact.
	UtilityHist       Histogram
	NeutralityErrHist Histogram

	// FaultCount is the number of injected fault episodes.
	FaultCount int

	// Elapsed and StepsPerSec measure wall-clock performance
	// (device-steps per second). Nondeterministic — excluded from golden
	// comparisons.
	Elapsed     time.Duration
	StepsPerSec float64
}

// histBuckets is the fixed bucket count of the summary histograms.
const histBuckets = 20

// summarize computes the run metrics from the trace, the per-device
// start batteries and the fleet battery endpoint.
func summarize(res *Result, batteryStarts []float64, batteryEnd float64, elapsed time.Duration) (Summary, error) {
	t := res.Trace
	var batteryStart float64
	for _, b := range batteryStarts {
		batteryStart += b
	}
	s := Summary{
		Devices:       t.Devices,
		Steps:         t.Steps,
		BatteryStartJ: batteryStart,
		BatteryEndJ:   batteryEnd,
		Elapsed:       elapsed,
	}
	var periodTotal float64
	utilities := make([]float64, 0, len(t.Records))
	residuals := make([]float64, 0, len(t.Records))
	prevBattery := append([]float64(nil), batteryStarts...)
	for i := range t.Records {
		r := &t.Records[i]
		s.TotalHarvestJ += r.HarvestJ
		s.TotalBudgetJ += r.BudgetJ
		s.TotalPlannedJ += r.PlannedJ
		s.TotalConsumedJ += r.ConsumedJ
		s.MeanAccuracy += r.Accuracy
		s.MeanUtility += r.Utility
		if r.Fault != "none" {
			s.FaultCount++
		}
		var active float64
		for _, a := range r.Active {
			active += a
		}
		s.ActiveFraction += active
		s.DeadFraction += r.DeadS
		periodTotal += res.Configs[r.Device].Period

		utilities = append(utilities, r.Utility)
		delta := r.BatteryJ - prevBattery[r.Device]
		prevBattery[r.Device] = r.BatteryJ
		residual := math.Abs(r.BudgetJ - r.ConsumedJ - delta)
		denom := math.Max(math.Max(r.BudgetJ, r.ConsumedJ), 1e-9)
		residuals = append(residuals, residual/denom)
	}
	if n := len(t.Records); n > 0 {
		s.MeanAccuracy /= float64(n)
		s.MeanUtility /= float64(n)
	}
	if periodTotal > 0 {
		s.ActiveFraction /= periodTotal
		s.DeadFraction /= periodTotal
	}
	if s.TotalBudgetJ > 0 {
		s.NeutralityError = math.Abs(s.TotalBudgetJ-s.TotalConsumedJ-(batteryEnd-batteryStart)) / s.TotalBudgetJ
	}
	var err error
	if s.UtilityDist, err = Summarize(utilities); err != nil {
		return Summary{}, fmt.Errorf("utility distribution: %w", err)
	}
	if s.NeutralityErrDist, err = Summarize(residuals); err != nil {
		return Summary{}, fmt.Errorf("neutrality distribution: %w", err)
	}
	s.UtilityHist = NewHistogram(utilities, 0, 1, histBuckets)
	s.NeutralityErrHist = NewHistogram(residuals, 0, 1, histBuckets)
	if sec := elapsed.Seconds(); sec > 0 {
		s.StepsPerSec = float64(len(t.Records)) / sec
	}
	return s, nil
}

// String renders the summary as a small human-readable report.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "devices=%d steps=%d (%d device-hours)\n", s.Devices, s.Steps, s.Devices*s.Steps)
	fmt.Fprintf(&b, "energy: harvested=%.2f J budgeted=%.2f J planned=%.2f J consumed=%.2f J\n",
		s.TotalHarvestJ, s.TotalBudgetJ, s.TotalPlannedJ, s.TotalConsumedJ)
	fmt.Fprintf(&b, "battery: %.2f J -> %.2f J   neutrality error=%.4f\n",
		s.BatteryStartJ, s.BatteryEndJ, s.NeutralityError)
	fmt.Fprintf(&b, "neutrality/step: p50=%.4f p90=%.4f p99=%.4f max=%.4f\n",
		s.NeutralityErrDist.P50, s.NeutralityErrDist.P90, s.NeutralityErrDist.P99, s.NeutralityErrDist.Max)
	fmt.Fprintf(&b, "quality: accuracy=%.4f utility=%.4f active=%.1f%% dead=%.1f%% faults=%d\n",
		s.MeanAccuracy, s.MeanUtility, 100*s.ActiveFraction, 100*s.DeadFraction, s.FaultCount)
	fmt.Fprintf(&b, "utility/step: p50=%.4f p90=%.4f p99=%.4f min=%.4f\n",
		s.UtilityDist.P50, s.UtilityDist.P90, s.UtilityDist.P99, s.UtilityDist.Min)
	fmt.Fprintf(&b, "perf: %s elapsed, %.0f device-steps/sec", s.Elapsed.Round(time.Millisecond), s.StepsPerSec)
	return b.String()
}

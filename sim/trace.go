package sim

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// StepRecord is one device's outcome for one activity period — one line
// of the trace. All energies are joules, all times seconds.
type StepRecord struct {
	// Step is the hour index from scenario start; Device the fleet index.
	Step, Device int
	// Sky is the weather state of the hour (shared across the fleet).
	Sky string
	// HarvestJ is the energy actually harvested; BudgetJ what the
	// controller was told (they differ under forecast-driven budgets);
	// SolveBudgetJ the budget the LP actually saw (BudgetJ plus the
	// controller's battery contribution and accounting carry).
	HarvestJ, BudgetJ, SolveBudgetJ float64
	// Active, OffS, DeadS are the planned allocation: seconds per design
	// point, off time, and unpowered time.
	Active      []float64
	OffS, DeadS float64
	// PlannedJ is the allocation's energy; ConsumedJ what execution
	// actually drew; BatteryJ the controller's battery after the step.
	PlannedJ, ConsumedJ, BatteryJ float64
	// Intensity is the hour's mean activity intensity (0 under
	// FlatConsumption); Fault names the injected fault episode ("none").
	Intensity float64
	Fault     string
	// Accuracy is the plan's expected recognition accuracy; Utility is
	// accuracy degraded by the fault episode's effect.
	Accuracy, Utility float64
}

// Trace is the full per-step record of one simulation run, in
// deterministic step-major, device-minor order.
type Trace struct {
	Scenario string
	Seed     int64
	Devices  int
	Steps    int
	Solver   string
	Records  []StepRecord
}

// Fixed-point trace formatting. Energies and times get microjoule /
// millisecond precision: fine enough that any behavioral change shows,
// coarse enough that a last-bit library wobble between Go releases
// cannot flip a digit (values would have to sit within 5·10⁻⁷ of a
// rounding boundary). Byte-identity between two runs of the same binary
// holds exactly regardless.
func f6(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }
func f3(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
func f4(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

// WriteText encodes the trace in its canonical text form: a header, one
// line per (step, device), and an end marker. The encoding is the
// golden-trace unit — byte-identical for identical runs. The header's
// cached=0 token is a fixed literal: it once recorded whether a solve
// cache ran, and stays so that pinned traces and their digests keep
// their bytes.
func (t *Trace) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# reapsim trace v1\n")
	fmt.Fprintf(bw, "# scenario=%s seed=%d devices=%d steps=%d solver=%s cached=0\n",
		t.Scenario, t.Seed, t.Devices, t.Steps, t.Solver)
	var act strings.Builder
	for i := range t.Records {
		r := &t.Records[i]
		act.Reset()
		for j, a := range r.Active {
			if j > 0 {
				act.WriteByte(',')
			}
			act.WriteString(f3(a))
		}
		fmt.Fprintf(bw, "s=%d d=%d sky=%s h=%s b=%s lp=%s act=%s off=%s dead=%s plan=%s used=%s batt=%s int=%s fault=%s acc=%s util=%s\n",
			r.Step, r.Device, r.Sky, f6(r.HarvestJ), f6(r.BudgetJ), f6(r.SolveBudgetJ), act.String(),
			f3(r.OffS), f3(r.DeadS), f6(r.PlannedJ), f6(r.ConsumedJ), f6(r.BatteryJ),
			f4(r.Intensity), r.Fault, f6(r.Accuracy), f6(r.Utility))
	}
	fmt.Fprintf(bw, "# end records=%d\n", len(t.Records))
	return bw.Flush()
}

// Bytes returns the canonical text encoding.
func (t *Trace) Bytes() []byte {
	var buf bytes.Buffer
	// bytes.Buffer never fails to write.
	_ = t.WriteText(&buf)
	return buf.Bytes()
}

// At returns the record for (step, device), exploiting the canonical
// ordering.
func (t *Trace) At(step, device int) *StepRecord {
	return &t.Records[step*t.Devices+device]
}

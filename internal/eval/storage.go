package eval

import (
	"repro/internal/core"
	"repro/internal/device"
)

// StorageRow compares one storage architecture over the solar month.
type StorageRow struct {
	Name            string
	MeanAccuracy    float64
	ActiveHours     int
	LongestGapHours int
	MeanGapHours    float64
}

// StorageResult contrasts the two device classes of the paper's Section 2:
// capacitor-only intermittent devices (turn off when no energy arrives)
// and battery-backed devices (small reserve extends active time), both
// running REAP on the same September trace.
type StorageResult struct {
	Rows []StorageRow
}

// Storage runs the comparison over an hourly harvest trace (the
// experiments command passes the September month).
func Storage(cfg core.Config, harvest []float64) (*StorageResult, error) {
	cfg.Alpha = 1
	res := &StorageResult{}

	// Capacitor-only intermittent device.
	inter := &device.IntermittentDevice{Cfg: cfg, Cap: device.DefaultCapacitor()}
	interRun, err := inter.Run(harvest)
	if err != nil {
		return nil, err
	}
	res.addRun("capacitor only (intermittent class)", interRun)

	// Battery-backed controller at two reserve sizes.
	for _, batt := range []struct {
		name     string
		capacity float64
	}{
		{"20 J battery + controller", 20},
		{"100 J battery + controller", 100},
	} {
		ctl, err := core.NewController(cfg, batt.capacity/2, batt.capacity)
		if err != nil {
			return nil, err
		}
		run, err := device.Run(ctl, harvest, 0, 0)
		if err != nil {
			return nil, err
		}
		res.addRun(batt.name, run)
	}
	return res, nil
}

func (r *StorageResult) addRun(name string, run *device.RunResult) {
	gaps := device.ComputeGapStats(run)
	r.Rows = append(r.Rows, StorageRow{
		Name:            name,
		MeanAccuracy:    run.MeanExpectedAccuracy(),
		ActiveHours:     gaps.ActiveHours,
		LongestGapHours: gaps.LongestGapHours,
		MeanGapHours:    gaps.MeanGapHours,
	})
}

// Render prints the storage-architecture grid.
func (r *StorageResult) Render() string {
	t := &table{header: []string{
		"storage", "mean E{a}", "active(h)", "longest gap(h)", "mean gap(h)",
	}}
	for _, row := range r.Rows {
		t.add(row.Name, f3(row.MeanAccuracy),
			f1(float64(row.ActiveHours)), f1(float64(row.LongestGapHours)), f1(row.MeanGapHours))
	}
	return "Storage architectures: intermittent vs battery-backed REAP (September, alpha=1)\n" +
		t.String()
}

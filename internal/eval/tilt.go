package eval

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/solar"
)

// TiltRow compares panel orientations for one month.
type TiltRow struct {
	Month       int
	FlatJ       float64
	TiltedJ     float64
	FlatAcc     float64
	TiltedAcc   float64
	HarvestGain float64 // tilted/flat harvest
}

// TiltResult evaluates a south-facing 40° panel against the horizontal
// cell across the year's extremes: tilt recovers winter harvest (low sun)
// at a small summer cost, directly shifting how many hours REAP spends in
// each region.
type TiltResult struct {
	Rows []TiltRow
}

// Tilt runs December, March and June with both orientations.
func Tilt(cfg core.Config) (*TiltResult, error) {
	cfg.Alpha = 1
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	flatPanel := solar.Panel{TiltDeg: 0, AzimuthDeg: 180, Albedo: 0.2}
	tiltedPanel := solar.Panel{TiltDeg: 40, AzimuthDeg: 180, Albedo: 0.2}
	res := &TiltResult{}
	for _, month := range []int{12, 3, 6} {
		flatTr, err := solar.TiltedMonthlyTrace(month, 2015, solar.DefaultCell(), flatPanel)
		if err != nil {
			return nil, err
		}
		tiltTr, err := solar.TiltedMonthlyTrace(month, 2015, solar.DefaultCell(), tiltedPanel)
		if err != nil {
			return nil, err
		}
		flatRun, err := device.Replay(cfg, flatTr.Hours, nil)
		if err != nil {
			return nil, err
		}
		tiltRun, err := device.Replay(cfg, tiltTr.Hours, nil)
		if err != nil {
			return nil, err
		}
		row := TiltRow{
			Month:     month,
			FlatJ:     flatTr.Total(),
			TiltedJ:   tiltTr.Total(),
			FlatAcc:   flatRun.MeanExpectedAccuracy(),
			TiltedAcc: tiltRun.MeanExpectedAccuracy(),
		}
		if row.FlatJ > 0 {
			row.HarvestGain = row.TiltedJ / row.FlatJ
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the orientation comparison.
func (r *TiltResult) Render() string {
	t := &table{header: []string{
		"month", "flat harvest(J)", "tilted harvest(J)", "gain", "flat E{a}", "tilted E{a}",
	}}
	for _, row := range r.Rows {
		t.add(fmt.Sprintf("%02d", row.Month), f1(row.FlatJ), f1(row.TiltedJ),
			f2(row.HarvestGain), f3(row.FlatAcc), f3(row.TiltedAcc))
	}
	return "Panel orientation: horizontal vs 40-degree south-facing tilt (alpha=1)\n" + t.String()
}

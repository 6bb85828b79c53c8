package service

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/wire"
)

// BenchmarkCompact times one stop-the-world compaction of a
// 262,144-device fleet, the size the repository benchmark's daemons
// run, after one report per device: encoding the snapshot under every
// shard lock, writing and fsyncing its file, and re-basing the journal.
// It reports the snapshot file's size as snapshot-B. The file calls
// only compact and applyReportBatch, so it compiles unchanged against
// builds with other snapshot formats and one copy measures both sides
// of a paired run.
func BenchmarkCompact(b *testing.B) {
	const devices = 262144
	dir := b.TempDir()
	svc, err := New(Config{Devices: devices, JournalDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	reports := make([]wire.DeviceReport, 64)
	for lo := 0; lo < devices; lo += len(reports) {
		for i := range reports {
			reports[i] = wire.DeviceReport{Device: lo + i, ConsumedJ: 0.001 * float64(1+i%7)}
		}
		if _, werr := svc.applyReportBatch(reports); werr != nil {
			b.Fatal(werr)
		}
	}
	if err := svc.compact(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.compact(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) == 0 {
		b.Fatalf("no snapshot in %s: %v", dir, err)
	}
	sort.Strings(snaps)
	fi, err := os.Stat(snaps[len(snaps)-1])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(fi.Size()), "snapshot-B")
}

package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	reap "repro"
	"repro/internal/journal"
	"repro/wire"
)

// This file is the crash-safety layer of the daemon: every state
// mutation the service acknowledges (device reports, telemetry steps,
// alpha changes) is framed as a journalEvent and appended to an
// internal/journal store before the response goes out, so a restart —
// even an unclean one — reconstructs the fleet by loading the newest
// snapshot and replaying the logged tail through applyEvent, the apply
// function the live handlers (through mutate) and a follower's frames
// use too. Solves are pure and never journaled.
//
// Ordering contract: one request is one record, appended while the
// locks of every shard the request touches are held, all acquired in
// ascending order (a step or alpha change holds one; a report batch
// holds every shard its devices fall in, in whatever order they come),
// so the journal's per-shard subsequence matches the order mutations
// actually ran in. Replay applies events in journal order, which
// therefore replays each shard's history exactly.

// Fsync policies: how often the journal flushes to disk. Appends always
// reach the kernel before a request is acknowledged (surviving kill
// -9); the policy only bounds exposure to power loss.
const (
	FsyncAlways   = "always"   // fdatasync per append
	FsyncInterval = "interval" // fdatasync on a timer (the default)
	FsyncNever    = "never"    // no explicit sync; kernel writeback only
)

// retainSegments is how many rotated journal segments each compaction
// keeps on disk, so that a follower a few snapshots behind catches up
// from the log instead of a full snapshot bootstrap.
const retainSegments = 4

// journalEvent is one logged state mutation, in the shape of its
// payload: op is the payload's tag (evReport, evStep or evAlpha).
// reports is an evReport's batch; device and value are an
// evStep's device and harvest, or an evAlpha's device and new
// accuracy-time weight.
type journalEvent struct {
	op      byte
	reports []wire.DeviceReport
	device  int
	value   float64
}

// mutations returns how many device mutations ev carries: an evReport's
// report count, or 1.
func (ev *journalEvent) mutations() int {
	if ev.op == evReport {
		return len(ev.reports)
	}
	return 1
}

// deviceOf returns the device of ev's i-th mutation, or of its last
// when i is past the end.
func (ev *journalEvent) deviceOf(i int) int {
	if ev.op == evReport {
		return ev.reports[min(i, len(ev.reports)-1)].Device
	}
	return ev.device
}

// cut drops every mutation of ev after its first n.
func (ev *journalEvent) cut(n int) {
	if ev.op == evReport {
		ev.reports = ev.reports[:n]
	}
}

// Journal event payload encoding: a compact binary format rather than
// JSON, because the report path encodes inside its shard locks on every
// acknowledged batch and float formatting alone would blow the ≤15%
// journaling budget (see BenchmarkReportPath). Layout:
//
//	byte 0: payload format version (evFormat)
//	byte 1: op tag (evReport / evStep / evAlpha)
//	evReport: uvarint count, then per report
//	          [uvarint device | 8B little-endian float64 consumed_j]
//	evStep:   uvarint device, 8B little-endian float64 harvest_j
//	evAlpha:  uvarint device, 8B little-endian float64 alpha
//
// Floats travel as raw IEEE-754 bits — exact round-trip, no formatting
// cost. Integrity (CRC) and record boundaries (length prefix) belong to
// the framing layer in internal/journal; this layer only owns meaning.
// Snapshots use the same raw-bits convention; see snapBinary below.
const (
	evFormat = 1
	evReport = 1
	evStep   = 2
	evAlpha  = 3
)

// encodeEvent appends ev's binary encoding to buf and returns it.
func encodeEvent(buf []byte, ev *journalEvent) ([]byte, error) {
	buf = append(buf, evFormat, ev.op)
	switch ev.op {
	case evReport:
		buf = binary.AppendUvarint(buf, uint64(len(ev.reports)))
		for _, rep := range ev.reports {
			if rep.Device < 0 {
				return nil, fmt.Errorf("journal event: negative device %d", rep.Device)
			}
			buf = binary.AppendUvarint(buf, uint64(rep.Device))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rep.ConsumedJ))
		}
	case evStep, evAlpha:
		if ev.device < 0 {
			return nil, fmt.Errorf("journal event: negative device %d", ev.device)
		}
		buf = binary.AppendUvarint(buf, uint64(ev.device))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ev.value))
	default:
		return nil, fmt.Errorf("journal event: unknown op tag %d", ev.op)
	}
	return buf, nil
}

// decodeEvent parses one binary event payload, strictly: every byte
// must be consumed, exactly as the service's wire layer treats JSON, and
// every varint must be one encodeEvent could have written — minimal and
// at most math.MaxInt — so an accepted payload re-encodes to itself.
func decodeEvent(payload []byte) (*journalEvent, error) {
	if len(payload) < 2 {
		return nil, fmt.Errorf("journal event: %d-byte payload", len(payload))
	}
	if payload[0] != evFormat {
		return nil, fmt.Errorf("journal event: unknown format %d", payload[0])
	}
	ev, rest := &journalEvent{op: payload[1]}, payload[2:]
	readUvarint := func() (int, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("journal event: truncated varint")
		}
		if n > 1 && rest[n-1] == 0 {
			return 0, fmt.Errorf("journal event: non-minimal varint % x", rest[:n])
		}
		if v > math.MaxInt {
			return 0, fmt.Errorf("journal event: varint %d overflows int", v)
		}
		rest = rest[n:]
		return int(v), nil
	}
	readFloat := func() (float64, error) {
		if len(rest) < 8 {
			return 0, fmt.Errorf("journal event: truncated float")
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(rest))
		rest = rest[8:]
		return f, nil
	}
	switch ev.op {
	case evReport:
		count, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if count > len(rest) { // each report needs ≥9 bytes
			return nil, fmt.Errorf("journal event: implausible report count %d", count)
		}
		ev.reports = make([]wire.DeviceReport, count)
		for i := range ev.reports {
			device, err := readUvarint()
			if err != nil {
				return nil, err
			}
			consumed, err := readFloat()
			if err != nil {
				return nil, err
			}
			ev.reports[i] = wire.DeviceReport{Device: device, ConsumedJ: consumed}
		}
	case evStep, evAlpha:
		var err error
		if ev.device, err = readUvarint(); err != nil {
			return nil, err
		}
		if ev.value, err = readFloat(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("journal event: unknown op tag %d", ev.op)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("journal event: %d trailing bytes", len(rest))
	}
	return ev, nil
}

// Snapshot payload formats, told apart by the first byte. A snapshot is
// the complete mutable state of the service at one sequence number.
// Counters for journaled mutations reconcile exactly across a crash
// (snapshot base + replay); pure-solve counters persist only as of the
// last snapshot.
//
// The binary format is written by every compaction:
//
//	[snapBinary][uvarint n][n-byte JSON snapshotHeader][Devices × 48-byte records]
//
// Records are in global device order, each the six ControllerState
// fields as little-endian 64-bit words: battery_j, carry_j,
// last_planned_j, last_budget_j, steps (uint64), alpha. Floats are raw
// IEEE-754 bits, as in events. The header stays JSON so that the first
// few hundred bytes of a snapshot file still name the fleet it belongs
// to; the states are binary because a JSON pass over 262,144 of them
// took ~200 ms and 27 MB under every shard lock (DESIGN.md, "On-disk
// format").
//
// snapJSON is the first byte of the JSON object older builds wrote,
// states included; boot and a follower's bootstrap still read it, and
// the boot compaction rewrites it in the binary format.
const (
	snapJSON        = '{'
	snapBinary      = 0x02
	stateRecordSize = 48
)

// snapshotHeader is a snapshot's fleet identity and counters.
type snapshotHeader struct {
	V           int    `json:"v"`
	Fingerprint string `json:"fingerprint"`
	Solves      uint64 `json:"solves"`
	BatchItems  uint64 `json:"batch_items"`
	Steps       uint64 `json:"steps"`
	Reports     uint64 `json:"reports"`
	AlphaSets   uint64 `json:"alpha_sets"`
}

// fleetSnapshot is a decoded snapshot. As JSON it is also the whole
// payload of the JSON format.
type fleetSnapshot struct {
	snapshotHeader
	States []reap.ControllerState `json:"states"` // index = global device
}

// newSnapshotBuffer starts a binary snapshot of n devices: it returns
// the format byte, the header length and the header, in a buffer whose
// capacity already holds the n records, so appending them with
// appendStateRecord never reallocates.
func newSnapshotBuffer(hdr *snapshotHeader, n int) ([]byte, error) {
	raw, err := json.Marshal(hdr)
	if err != nil {
		return nil, fmt.Errorf("journal snapshot header: %w", err)
	}
	buf := make([]byte, 0, 1+binary.MaxVarintLen64+len(raw)+n*stateRecordSize)
	buf = append(buf, snapBinary)
	buf = binary.AppendUvarint(buf, uint64(len(raw)))
	return append(buf, raw...), nil
}

// appendStateRecord appends st to a binary snapshot as one record. A
// negative step count fails rather than wrapping to a huge uint64.
func appendStateRecord(buf []byte, st reap.ControllerState) ([]byte, error) {
	if st.Steps < 0 {
		return nil, fmt.Errorf("journal snapshot: negative step count %d", st.Steps)
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.BatteryJ))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.CarryJ))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.LastPlannedJ))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.LastBudgetJ))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.Steps))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.Alpha))
	return buf, nil
}

// decodeSnapshot parses a snapshot payload of either format. A JSON
// payload decodes as older builds decoded it. A binary one decodes
// strictly: the header must be byte for byte what newSnapshotBuffer
// writes for its fields, which refuses a "states" key, unknown keys,
// duplicate keys and extra whitespace, and the table must be a whole
// number of records, so every payload it accepts re-encodes exactly.
// Value checks belong to Controller.Restore, and fleet-shape checks to
// restoreSnapshot.
func decodeSnapshot(payload []byte) (*fleetSnapshot, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("journal snapshot: empty payload")
	}
	snap := &fleetSnapshot{}
	switch payload[0] {
	case snapJSON:
		if err := json.Unmarshal(payload, snap); err != nil {
			return nil, fmt.Errorf("journal snapshot: %w", err)
		}
		return snap, nil
	case snapBinary:
	default:
		return nil, fmt.Errorf("journal snapshot: unknown format byte %#x", payload[0])
	}
	rest := payload[1:]
	n, k := binary.Uvarint(rest)
	if k <= 0 {
		return nil, fmt.Errorf("journal snapshot: truncated header length")
	}
	rest = rest[k:]
	if n > uint64(len(rest)) {
		return nil, fmt.Errorf("journal snapshot: %d-byte header runs past the %d bytes left", n, len(rest))
	}
	raw, table := rest[:n], rest[n:]
	if err := json.Unmarshal(raw, &snap.snapshotHeader); err != nil {
		return nil, fmt.Errorf("journal snapshot header: %w", err)
	}
	if canon, err := json.Marshal(&snap.snapshotHeader); err != nil || !bytes.Equal(canon, raw) {
		return nil, fmt.Errorf("journal snapshot header: not the encoding of its own fields")
	}
	if len(table)%stateRecordSize != 0 {
		return nil, fmt.Errorf("journal snapshot: %d-byte state table is not a whole number of %d-byte records",
			len(table), stateRecordSize)
	}
	snap.States = make([]reap.ControllerState, len(table)/stateRecordSize)
	for i := range snap.States {
		rec := table[i*stateRecordSize : (i+1)*stateRecordSize]
		steps := binary.LittleEndian.Uint64(rec[32:40])
		if steps > math.MaxInt {
			return nil, fmt.Errorf("journal snapshot: device %d step count %d overflows int", i, steps)
		}
		snap.States[i] = reap.ControllerState{
			BatteryJ:     math.Float64frombits(binary.LittleEndian.Uint64(rec[0:8])),
			CarryJ:       math.Float64frombits(binary.LittleEndian.Uint64(rec[8:16])),
			LastPlannedJ: math.Float64frombits(binary.LittleEndian.Uint64(rec[16:24])),
			LastBudgetJ:  math.Float64frombits(binary.LittleEndian.Uint64(rec[24:32])),
			Steps:        int(steps),
			Alpha:        math.Float64frombits(binary.LittleEndian.Uint64(rec[40:48])),
		}
	}
	return snap, nil
}

// fingerprint identifies the configuration a journal belongs to. A
// journal written under one fleet shape must not silently replay into
// another: device indices and initial conditions would no longer mean
// the same thing, so boot refuses with an explicit error instead. The
// empty solver token stays so that journals written while the daemon
// could pick a solver still boot; one written under a named solver is
// refused.
func (s *Service) fingerprint() string {
	return fmt.Sprintf(`v1 devices=%d solver="" battery=%g/%g`,
		s.cfg.Devices, s.cfg.BatteryJ, s.cfg.CapacityJ)
}

// openJournal runs the two-phase boot: Open loads the newest snapshot,
// restoreSnapshot rebuilds fleet state and counters from it, Start
// replays the logged tail through replayEvent, and a fresh compaction
// re-bases the journal so the next boot replays only what this process
// appends. Called from New before the service serves anything.
func (s *Service) openJournal() error {
	store, err := journal.Open(s.cfg.JournalDir, journal.Options{
		SyncEveryAppend: s.cfg.FsyncPolicy == FsyncAlways,
		RetainSegments:  retainSegments,
	})
	if err != nil {
		return err
	}
	if payload, _ := store.Snapshot(); payload != nil {
		if err := s.restoreSnapshot(payload); err != nil {
			return err
		}
	}
	if err := store.Start(s.replayEvent); err != nil {
		return err
	}
	s.store = store
	if err := s.compact(); err != nil {
		return fmt.Errorf("boot compaction: %w", err)
	}
	return nil
}

// restoreSnapshot rebuilds per-device controller state and the
// journaled counters from a snapshot payload of either format.
func (s *Service) restoreSnapshot(payload []byte) error {
	snap, err := decodeSnapshot(payload)
	if err != nil {
		return err
	}
	if snap.Fingerprint != s.fingerprint() {
		return fmt.Errorf("%w: journal %s belongs to %q, this service is %q",
			reap.ErrInvalidConfig, s.cfg.JournalDir, snap.Fingerprint, s.fingerprint())
	}
	if len(snap.States) != s.cfg.Devices {
		return fmt.Errorf("%w: journal snapshot holds %d devices, service owns %d",
			reap.ErrInvalidConfig, len(snap.States), s.cfg.Devices)
	}
	for device, st := range snap.States {
		ctl, err := s.fleet.Device(device)
		if err != nil {
			return err
		}
		if err := ctl.Restore(st); err != nil {
			return fmt.Errorf("restoring device %d: %w", device, err)
		}
	}
	s.solves.Store(snap.Solves)
	s.batchItems.Store(snap.BatchItems)
	s.steps.Store(snap.Steps)
	s.reports.Store(snap.Reports)
	s.alphaSets.Store(snap.AlphaSets)
	return nil
}

// replayEvent applies one logged event during boot. Only successful
// mutations were journaled, so an apply error here means the event is
// re-failing deterministically (skipped, exactly as it failed live); a
// device outside the fleet means a journal this configuration cannot
// own, and aborts the boot.
func (s *Service) replayEvent(payload []byte) error {
	ev, err := decodeEvent(payload)
	if err != nil {
		return fmt.Errorf("malformed journal event: %w", err)
	}
	if _, valid, werr := s.shardsOf(ev, nil); valid < ev.mutations() {
		return fmt.Errorf("%w: replaying journal event: %v", reap.ErrInvalidConfig, werr)
	}
	var n int
	_ = s.applyEvent(ev, nil, &n)
	return nil
}

// applyEvent applies ev's mutations to the fleet in order: the one
// place a controller's battery, carry or α changes, for a live request
// (mutate), a follower's frame (replEvent) and boot replay
// (replayEvent) alike. It stops at the first mutation a controller
// refuses and returns the refusal. *n counts the applied mutations as
// they apply, so a caller that recovers a panic knows the device it
// hit, and the matching counter grows by *n once at the end. A step's
// schedule goes to alloc unless it is nil. The caller holds the locks
// of every shard ev touches, or runs before the service serves.
func (s *Service) applyEvent(ev *journalEvent, alloc *reap.Allocation, n *int) error {
	var err error
	for ; *n < ev.mutations(); *n++ {
		var ctl *reap.Controller
		if ctl, err = s.fleet.Device(ev.deviceOf(*n)); err != nil {
			break
		}
		switch ev.op {
		case evReport:
			err = ctl.Report(ev.reports[*n].ConsumedJ)
		case evStep:
			var a reap.Allocation
			if a, err = ctl.Step(ev.value); err == nil && alloc != nil {
				*alloc = a
			}
		case evAlpha:
			err = ctl.SetAlpha(ev.value)
		default:
			err = fmt.Errorf("unknown journal op tag %d", ev.op)
		}
		if err != nil {
			break
		}
	}
	switch ev.op {
	case evReport:
		s.reports.Add(uint64(*n))
	case evStep:
		s.steps.Add(uint64(*n))
	case evAlpha:
		s.alphaSets.Add(uint64(*n))
	}
	return err
}

// journalAppend logs one event, a no-op when journaling is off. Every
// journaled node builds its hub in New before it serves, and the append
// routes through it: the hub appends to the store and ships the event to
// every live follower before returning — acked ⇒ journaled ⇒ shipped.
// Callers hold the lock of every shard the event mutated, which is what
// pins per-shard journal order to apply order.
func (s *Service) journalAppend(ev *journalEvent) *wire.Error {
	if s.hub == nil {
		return nil
	}
	payload, err := encodeEvent(make([]byte, 0, 4+18*(1+len(ev.reports))), ev)
	if err != nil {
		return wire.Errorf(wire.CodeInternal, "encoding journal event: %v", err)
	}
	if _, aerr := s.hub.Append(payload); aerr != nil {
		if errors.Is(aerr, journal.ErrDiskFull) {
			// Out of disk: flip to sticky read-only degraded mode — this
			// mutation and all later ones answer 503 degraded (applied but
			// unacknowledged, the same at-least-once contract as any
			// journal failure) while stateless solves keep serving.
			s.degraded.Store(true)
			return wire.Errorf(wire.CodeDegraded, "journal disk full, node now read-only: %v", aerr)
		}
		// The mutation is applied but not durable: answer 500 so the
		// client does not treat it as acknowledged.
		return wire.Errorf(wire.CodeInternal, "journal append: %v", aerr)
	}
	return nil
}

// buildSnapshot encodes the complete service state as a binary
// snapshot, straight from the controllers into one buffer sized up
// front. Callers must hold every shard lock (see compact) so the
// snapshot is a consistent cut: no mutation can land between a shard's
// capture and the sequence number the snapshot is recorded at.
func (s *Service) buildSnapshot() ([]byte, error) {
	buf, err := newSnapshotBuffer(&snapshotHeader{
		V:           wire.Version,
		Fingerprint: s.fingerprint(),
		Solves:      s.solves.Load(),
		BatchItems:  s.batchItems.Load(),
		Steps:       s.steps.Load(),
		Reports:     s.reports.Load(),
		AlphaSets:   s.alphaSets.Load(),
	}, s.cfg.Devices)
	if err != nil {
		return nil, err
	}
	for d := range s.cfg.Devices {
		ctl, err := s.fleet.Device(d)
		if err != nil {
			return nil, err
		}
		if buf, err = appendStateRecord(buf, ctl.State()); err != nil {
			return nil, fmt.Errorf("device %d: %w", d, err)
		}
	}
	return buf, nil
}

// compact writes a snapshot of current state and re-bases the journal
// on it. It stops the world — every shard lock is held for the
// duration — so the snapshot is exactly the state at the recorded
// sequence number; the pause is one full-fleet state encoding plus the
// snapshot file's write and fsync.
func (s *Service) compact() error {
	lockShards(s.shards)
	defer unlockShards(s.shards)
	payload, err := s.buildSnapshot()
	if err != nil {
		return err
	}
	if err := s.store.Compact(payload); err != nil {
		return err
	}
	s.appendsAtCompact.Store(s.store.Stats().Appended)
	return nil
}

// maintain is the journal's background loop: under the "interval"
// fsync policy it flushes appended records to disk each tick, and under
// every policy it compacts once enough events accumulate past the last
// snapshot. It is the one long-lived goroutine the service owns, and it
// runs behind a resilience.Go recover boundary (enforced by the reapvet
// recoverboundary analyzer).
func (s *Service) maintain() {
	ticker := time.NewTicker(s.cfg.FsyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			if s.cfg.FsyncPolicy == FsyncInterval {
				_ = s.store.Sync()
			}
			if n := s.store.Stats().Appended; n-s.appendsAtCompact.Load() >= s.cfg.SnapshotEvery {
				_ = s.compact()
			}
		}
	}
}

// Close stops the replication tail and hub, stops the maintenance
// loop, compacts a final snapshot so the next boot replays nothing, and
// closes the journal. Safe to call more than once; a Service without a
// journal closes trivially.
func (s *Service) Close() error {
	s.closeOnce.Do(func() {
		s.promoteMu.Lock()
		s.stopTailLocked()
		s.promoteMu.Unlock()
		if s.hub != nil {
			s.hub.Close() // detaches streams; their handlers return
		}
		if s.stop != nil {
			close(s.stop)
		}
		if s.store == nil {
			return
		}
		if err := s.compact(); err != nil {
			_ = s.store.Close()
			s.closeErr = err
			return
		}
		s.closeErr = s.store.Close()
	})
	return s.closeErr
}

// Command reapd serves the REAP fleet-allocation solver over HTTP/JSON:
// a daemon owning a sharded fleet of controller sessions, speaking the
// versioned wire schema of repro/wire (see DESIGN.md "The reapd
// service").
//
// Usage:
//
//	reapd [-addr :8080] [-devices 1024] [-shards 8]
//	      [-battery 0] [-capacity 0]
//	      [-rate 0] [-burst 0] [-drain-timeout 30s]
//	      [-journal DIR] [-fsync interval] [-fsync-interval 100ms]
//	      [-snapshot-every 4096]
//	      [-role primary] [-primary HOST:PORT] [-follower-id ID]
//	      [-quarantine-after 0]
//	      [-max-inflight 0] [-default-deadline 0] [-max-deadline 0]
//
// Endpoints:
//
//	POST /v1/solve          one stateless allocation
//	POST /v1/batch-solve    many independent allocations in one round trip
//	POST /v1/report         measured consumption for owned devices
//	POST /v1/telemetry      NDJSON stream: harvest in, allocation out (full duplex)
//	POST /v1/alpha          re-weight one device's accuracy-time objective
//	GET  /v1/stats          counters, shards, journal, replication
//	GET  /healthz           liveness + role/epoch/lag (503 while draining)
//	GET  /v1/replicate      journal-shipping stream for followers
//	POST /v1/replicate/ack  follower apply-position acks
//	POST /v1/promote        admin failover: follower becomes primary
//
// -rate enables per-tenant admission control (tenant = X-Tenant header):
// each tenant gets -rate solves/second with bursts of -burst, excess is
// answered 429 with Retry-After. SIGTERM/SIGINT drains gracefully:
// listeners stop accepting, in-flight solves and telemetry events
// finish, bounded by -drain-timeout.
//
// -journal makes the fleet crash-safe: every acknowledged mutation is
// appended to a write-ahead log in DIR before its response goes out,
// and boot replays the newest snapshot plus the logged tail, so a crash
// — even kill -9 — loses nothing that was acknowledged. -fsync picks
// the disk-flush policy (always | interval | never; all three survive
// process death, the policy bounds power-loss exposure). See DESIGN.md
// "Failure model".
//
// -role follower -primary HOST:PORT makes this daemon a hot standby: it
// boots from its own -journal, tails the primary's journal stream
// (snapshot bootstrap when it is further behind than the newest
// snapshot and the four rotated segments the primary keeps before it;
// heartbeats every 500 ms on an idle stream), applies every acked
// mutation, serves stateless solves normally, and refuses mutations
// with 503 not_primary plus a Leader hint header. POST /v1/promote
// turns it into the primary, bumping the fencing epoch persisted in the
// journal dir so the old primary — should it come back — is rejected
// with 409 stale_epoch instead of split-braining. See DESIGN.md
// "Replication contract" and the README failover runbook.
//
// -max-inflight sheds excess load with 503 + Retry-After before any
// work is done; -default-deadline/-max-deadline bound per-request solve
// time, with clients lowering (never raising) their own deadline via
// the X-Deadline-Ms header; -quarantine-after N fences a shard off with
// 503s after N panics inside its critical sections.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/resilience"
	"repro/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("reapd: ")

	addr := flag.String("addr", ":8080", "listen address")
	devices := flag.Int("devices", 1024, "number of owned controller sessions")
	shards := flag.Int("shards", 0, "fleet shards (0 = min(devices, 8))")
	battery := flag.Float64("battery", 0, "per-device initial battery charge in J")
	capacity := flag.Float64("capacity", 0, "per-device battery capacity in J")
	rate := flag.Float64("rate", 0, "per-tenant admitted solves/second (0 = unlimited)")
	burst := flag.Int("burst", 0, "admission burst (0 = max(rate, 1))")
	drainTimeout := flag.Duration("drain-timeout", 30e9, "grace period for in-flight work on SIGTERM")
	journalDir := flag.String("journal", "", "journal directory for crash-safe fleet state (empty = off)")
	fsync := flag.String("fsync", service.FsyncInterval, "journal fsync policy: always | interval | never")
	fsyncInterval := flag.Duration("fsync-interval", 0, "flush cadence under -fsync interval (0 = 100ms)")
	snapshotEvery := flag.Uint64("snapshot-every", 0, "compact a snapshot every N journal appends (0 = 4096)")
	role := flag.String("role", "", "replication role: primary (default) | follower")
	primary := flag.String("primary", "", "primary address a follower replicates from")
	followerID := flag.String("follower-id", "", "name for this follower in the primary's lag accounting")
	quarantineAfter := flag.Int("quarantine-after", 0, "quarantine a shard after N panics (0 = never)")
	maxInflight := flag.Int("max-inflight", 0, "shed requests beyond N in flight with 503 (0 = unlimited)")
	defaultDeadline := flag.Duration("default-deadline", 0, "per-request deadline when the client sends none (0 = none)")
	maxDeadline := flag.Duration("max-deadline", 0, "cap on client X-Deadline-Ms requests (0 = default-deadline)")
	flag.Parse()

	svc, err := service.New(service.Config{
		Devices:         *devices,
		Shards:          *shards,
		BatteryJ:        *battery,
		CapacityJ:       *capacity,
		RatePerSec:      *rate,
		Burst:           *burst,
		JournalDir:      *journalDir,
		FsyncPolicy:     *fsync,
		FsyncInterval:   *fsyncInterval,
		SnapshotEvery:   *snapshotEvery,
		Role:            *role,
		PrimaryAddr:     *primary,
		FollowerID:      *followerID,
		QuarantineAfter: *quarantineAfter,
		MaxInflight:     *maxInflight,
		Deadline: resilience.DeadlinePolicy{
			Default: *defaultDeadline,
			Max:     *maxDeadline,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if js := svc.Stats().Journal; js != nil {
		// Boot compacts after the replay, so SnapshotSeq already counts
		// the replayed events; the snapshot boot loaded lies that far back.
		log.Printf("journal %s: replayed %d events onto snapshot seq %d (torn tail: %v), fsync %s",
			*journalDir, js.Replayed, js.SnapshotSeq-js.Replayed, js.TornTail, js.FsyncPolicy)
	}
	if rs := svc.Stats().Replication; rs != nil {
		if rs.Role == "follower" {
			log.Printf("replication: follower of %s at epoch %d", rs.Primary, rs.Epoch)
		} else {
			log.Printf("replication: primary at epoch %d", rs.Epoch)
		}
	}
	srv := service.NewServer(svc, *addr)
	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}
	log.Printf("serving %d devices on %d shards at http://%s", svc.Devices(), svc.Shards(), srv.Addr())

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	select {
	case err := <-done:
		if err != nil {
			log.Fatal(err)
		}
	case sig := <-sigs:
		log.Printf("%v: draining (in-flight work finishes, listeners closed)", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			log.Fatal(err)
		}
		log.Print("drained")
	}
}

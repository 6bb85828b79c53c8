// Package resilience holds the fault-tolerance primitives reapd
// composes around its handlers: recover boundaries for goroutines and
// shard operations, a panic-counting quarantine breaker, deadline
// derivation from request headers, and an in-flight admission gate for
// overload shedding. The chaos middleware (chaos.go) injects the same
// faults deterministically so tests and load runs can prove the
// boundaries hold.
//
// The reapvet recoverboundary analyzer enforces that internal/service
// never spawns a bare goroutine: every `go` there must route through Go
// so a panic in background work is counted and contained instead of
// killing the daemon.
package resilience

import (
	"sync/atomic"
)

// Go runs fn on a new goroutine behind a recover boundary. A panic is
// swallowed and handed to onPanic (which may be nil) together with the
// recovered value; the goroutine then exits instead of crashing the
// process. name labels the goroutine for the onPanic observer.
func Go(name string, onPanic func(name string, recovered any), fn func()) {
	go func() {
		defer func() {
			if r := recover(); r != nil && onPanic != nil {
				onPanic(name, r)
			}
		}()
		fn()
	}()
}

// Breaker counts panics against a threshold and trips into quarantine
// when they reach it. reapd gives every shard its own breaker: a shard
// whose handlers keep panicking has state that can no longer be
// trusted, so its devices are refused (503 shard_quarantined) while the
// rest of the fleet keeps serving.
type Breaker struct {
	threshold uint64
	panics    atomic.Uint64
}

// NewBreaker returns a breaker that quarantines after threshold panics;
// threshold <= 0 disables quarantine (panics are still counted).
func NewBreaker(threshold int) *Breaker {
	if threshold < 0 {
		threshold = 0
	}
	return &Breaker{threshold: uint64(threshold)}
}

// RecordPanic counts one panic and reports whether the breaker is now
// (or already was) quarantined.
func (b *Breaker) RecordPanic() bool {
	n := b.panics.Add(1)
	return b.threshold > 0 && n >= b.threshold
}

// Quarantined reports whether the panic count has reached the
// threshold.
func (b *Breaker) Quarantined() bool {
	return b.threshold > 0 && b.panics.Load() >= b.threshold
}

// Gate is the queue-depth admission control for overload shedding: at
// most Max requests proceed concurrently, the rest are shed before any
// work is done. Zero Max admits everything.
type Gate struct {
	max      int64
	inflight atomic.Int64
	shed     atomic.Uint64
}

// NewGate returns a gate admitting at most max concurrent entries;
// max <= 0 disables shedding.
func NewGate(max int) *Gate {
	if max < 0 {
		max = 0
	}
	return &Gate{max: int64(max)}
}

// Enter tries to occupy a slot. When it returns false the request must
// be shed — and Leave must NOT be called. When true, the caller owns a
// slot and must release it with Leave.
func (g *Gate) Enter() bool {
	if g.max <= 0 {
		return true
	}
	if g.inflight.Add(1) > g.max {
		g.inflight.Add(-1)
		g.shed.Add(1)
		return false
	}
	return true
}

// Leave releases a slot taken by a successful Enter.
func (g *Gate) Leave() {
	if g.max > 0 {
		g.inflight.Add(-1)
	}
}

// Shed returns how many requests the gate refused.
func (g *Gate) Shed() uint64 { return g.shed.Load() }

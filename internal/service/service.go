// Package service is the reapd fleet-allocation daemon behind cmd/reapd:
// it owns a sharded fleet of controller sessions and serves the solver
// over HTTP/JSON using the typed structs of repro/wire.
//
// The architecture follows the registry-of-small-services shape named in
// ROADMAP.md rather than one monolith handler: each endpoint is a small
// single-purpose handler, every payload passes through the wire schema
// (strict decode, explicit versioning), and cross-cutting concerns —
// per-tenant admission control, drain state, counters — compose around
// the handlers rather than inside them.
//
//   - Sharding: the service owns one reap.Fleet of every device, and
//     shards are lock stripes over it: contiguous device ranges, each
//     with its own mutex and panic breaker. Stateful work (telemetry
//     steps, reports) serializes per shard and runs concurrently across
//     shards; stateless solves never touch a shard.
//   - Admission: a per-tenant token bucket (tenant = X-Tenant header)
//     charges one token per solve — batch items each cost one — and
//     rejects over-budget work with 429 and a Retry-After hint.
//   - Drain: Drain stops admitting new work (503 draining, Retry-After)
//     while in-flight requests, including open telemetry streams,
//     finish; Server.Drain composes this with http.Server.Shutdown so
//     listeners close too. cmd/reapd wires SIGTERM to exactly that.
//   - Crash safety: with Config.JournalDir set, every acknowledged
//     state mutation (reports, steps, alpha changes) is logged to an
//     internal/journal write-ahead store before the response goes out,
//     and boot replays snapshot + tail back into the fleet — see
//     journal.go and the "Failure model" section of DESIGN.md.
//   - Fault containment: handlers run behind recover boundaries
//     (middleware.go); shard critical sections convert panics into
//     500/CodePanic and quarantine the shard after repeated panics; an
//     in-flight gate sheds overload with 503 before work is done; the
//     X-Deadline-Ms header bounds each request under server policy.
package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	reap "repro"
	"repro/internal/journal"
	"repro/internal/replicate"
	"repro/internal/resilience"
	"repro/wire"
)

// Config sizes a Service. The zero value is not runnable — Devices must
// be positive; every other field has a usable default.
type Config struct {
	// Devices is the number of controller sessions the daemon owns.
	Devices int
	// Shards partitions the fleet into lock stripes; 0 picks
	// min(Devices, 8). Stateful endpoints lock one shard, so more shards
	// mean more telemetry concurrency, and a compaction takes them all.
	Shards int
	// BatteryJ/CapacityJ is every device's initial battery state.
	BatteryJ, CapacityJ float64
	// RatePerSec is the per-tenant admission rate in solves per second;
	// 0 disables rate limiting. Burst is the token-bucket depth, at
	// least 1 (default max(RatePerSec, 1)).
	RatePerSec float64
	Burst      int
	// JournalDir, when set, makes the service crash-safe: every state
	// mutation is appended to a write-ahead journal there before it is
	// acknowledged, and boot replays snapshot + tail back into the
	// fleet. Empty (the default) disables journaling.
	JournalDir string
	// FsyncPolicy bounds power-loss exposure: FsyncAlways syncs per
	// append, FsyncInterval (the default) syncs every FsyncInterval,
	// FsyncNever leaves flushing to kernel writeback. All policies
	// survive process death (kill -9): appends reach the kernel before
	// the response does.
	FsyncPolicy string
	// FsyncInterval is the maintenance-loop tick (default 100ms): the
	// sync cadence under FsyncInterval and the compaction check cadence
	// under every policy.
	FsyncInterval time.Duration
	// SnapshotEvery compacts the journal after this many appends
	// (default 4096), bounding replay time at the next boot.
	SnapshotEvery uint64
	// Role selects the replication role: "" or "primary" acknowledges
	// mutations (and, when journaled, serves GET /v1/replicate to
	// followers); "follower" tails PrimaryAddr, refuses mutations with
	// 503 not_primary, and serves stateless solves normally. Follower
	// requires JournalDir and PrimaryAddr.
	Role string
	// PrimaryAddr is the host:port a follower replicates from, and the
	// Leader hint attached to its refusals.
	PrimaryAddr string
	// FollowerID names this follower in the primary's lag accounting
	// (default "follower"). It must be valid UTF-8: the primary keys a
	// follower by the ID its stream request carries byte for byte and by
	// the one its JSON acks carry, and JSON cannot carry an invalid byte.
	FollowerID string
	// QuarantineAfter takes a shard out of service (503
	// shard_quarantined) after that many panics inside its handlers —
	// state that keeps panicking can no longer be trusted. 0 disables
	// quarantine; panics are still counted and contained.
	QuarantineAfter int
	// MaxInflight sheds requests (503 overloaded, Retry-After) past
	// this many concurrently admitted requests; 0 admits everything.
	MaxInflight int
	// Deadline derives per-request timeouts from the X-Deadline-Ms
	// header, clamped into [0, Max]. The zero policy applies none.
	Deadline resilience.DeadlinePolicy
	// Chaos enables deterministic fault injection — test and load-rig
	// use only. The zero config injects nothing.
	Chaos resilience.ChaosConfig
}

// Service owns the fleet and implements the endpoint handlers.
type Service struct {
	cfg     Config
	fleet   *reap.Fleet // every owned device, by global index
	shards  []*shard    // lock stripes over fleet, in device order
	limiter *limiter
	store   *journal.Store // nil when journaling is off
	gate    *resilience.Gate
	chaos   *resilience.Chaos // nil when chaos is off

	// Replication state (see replication.go). hub exists on every
	// journaled node; tailer only on one booted as a follower.
	hub        *replicate.Hub
	tailer     *replicate.Tailer
	tailCancel context.CancelFunc
	tailDone   chan struct{}
	promoteMu  sync.Mutex // serializes promote and Close teardown

	epoch        atomic.Uint64 // persisted fencing term
	maxSeenEpoch atomic.Uint64 // highest epoch observed from peers/clients
	follower     atomic.Bool
	fenced       atomic.Bool // ex-primary that saw a higher epoch
	degraded     atomic.Bool // journal disk full: read-only

	primarySeq atomic.Uint64 // follower: primary's seq as of last frame
	lastFrame  atomic.Int64  // follower: unixnano of last stream frame
	applied    atomic.Uint64 // follower: replicated events applied

	draining atomic.Bool

	solves      atomic.Uint64
	batchItems  atomic.Uint64
	steps       atomic.Uint64
	reports     atomic.Uint64
	alphaSets   atomic.Uint64
	rateLimited atomic.Uint64
	panics      atomic.Uint64

	stop      chan struct{} // closes to stop the maintenance loop
	closeOnce sync.Once
	closeErr  error

	// testHookSolve, when set, runs inside the solve handler between
	// admission and the solve itself — the seam the drain test uses to
	// hold a request in flight deterministically. testHookReport runs
	// inside the shard critical section of every report apply — the
	// seam the quarantine tests use to panic where it hurts.
	testHookSolve  func()
	testHookReport func()
}

// shard is one lock stripe over the fleet: the mutex that serializes
// stateful access to devices [lo, hi) (Controller sessions are not safe
// for concurrent stepping) and the breaker that quarantines the stripe
// when its critical sections keep panicking.
type shard struct {
	mu      sync.Mutex
	lo, hi  int
	breaker *resilience.Breaker
}

// defaultShards is the shard count a zero Config.Shards picks, and so
// the most shards a request's locks resolve into without allocating.
const defaultShards = 8

// New builds the service: one fleet and its lock stripes.
func New(cfg Config) (*Service, error) {
	if cfg.Devices <= 0 {
		return nil, fmt.Errorf("%w: service needs a positive device count, got %d",
			reap.ErrInvalidConfig, cfg.Devices)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = defaultShards
	}
	if cfg.Shards > cfg.Devices {
		cfg.Shards = cfg.Devices
	}
	switch cfg.FsyncPolicy {
	case "":
		cfg.FsyncPolicy = FsyncInterval
	case FsyncAlways, FsyncInterval, FsyncNever:
	default:
		return nil, fmt.Errorf("%w: unknown fsync policy %q (want %s, %s or %s)",
			reap.ErrInvalidConfig, cfg.FsyncPolicy, FsyncAlways, FsyncInterval, FsyncNever)
	}
	if cfg.FsyncInterval <= 0 {
		cfg.FsyncInterval = 100 * time.Millisecond
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 4096
	}
	switch cfg.Role {
	case "", wire.RolePrimary:
	case wire.RoleFollower:
		if cfg.JournalDir == "" || cfg.PrimaryAddr == "" {
			return nil, fmt.Errorf("%w: follower role requires a journal dir and a primary address",
				reap.ErrInvalidConfig)
		}
		if cfg.FollowerID == "" {
			cfg.FollowerID = "follower"
		}
		if !utf8.ValidString(cfg.FollowerID) {
			return nil, fmt.Errorf("%w: follower ID %q is not valid UTF-8", reap.ErrInvalidConfig, cfg.FollowerID)
		}
	default:
		return nil, fmt.Errorf("%w: unknown role %q (want %q or %q)",
			reap.ErrInvalidConfig, cfg.Role, wire.RolePrimary, wire.RoleFollower)
	}
	fleet, err := reap.NewFleet(cfg.Devices, reap.WithBattery(cfg.BatteryJ, cfg.CapacityJ))
	if err != nil {
		return nil, err
	}
	s := &Service{cfg: cfg, fleet: fleet, shards: make([]*shard, cfg.Shards)}
	s.gate = resilience.NewGate(cfg.MaxInflight)
	s.chaos = resilience.NewChaos(cfg.Chaos)
	for i := range s.shards {
		s.shards[i] = &shard{lo: i * cfg.Devices / cfg.Shards, hi: (i + 1) * cfg.Devices / cfg.Shards,
			breaker: resilience.NewBreaker(cfg.QuarantineAfter)}
	}

	if cfg.RatePerSec > 0 {
		burst := cfg.Burst
		if burst <= 0 {
			burst = int(math.Max(cfg.RatePerSec, 1))
		}
		s.limiter = newLimiter(cfg.RatePerSec, float64(burst))
	}

	if cfg.JournalDir != "" {
		if err := s.openJournal(); err != nil {
			return nil, fmt.Errorf("service journal: %w", err)
		}
		epoch, err := replicate.LoadEpoch(cfg.JournalDir)
		if err != nil {
			return nil, fmt.Errorf("service epoch: %w", err)
		}
		s.epoch.Store(epoch)
		hubCfg := replicate.HubConfig{Store: s.store, Epoch: s.epoch.Load}
		if s.chaos != nil {
			hubCfg.WrapStream = s.chaos.WrapStream
		}
		s.hub = replicate.NewHub(hubCfg)
		s.stop = make(chan struct{})
		resilience.Go("journal-maintenance", s.backgroundPanic, s.maintain)
		if cfg.Role == wire.RoleFollower {
			s.follower.Store(true)
			s.startTail()
		}
	}
	return s, nil
}

// backgroundPanic is the recover observer for the service's background
// goroutines: the panic is counted and the daemon keeps serving (with
// degraded maintenance) instead of dying.
func (s *Service) backgroundPanic(string, any) { s.panics.Add(1) }

// Devices returns the number of controller sessions the service owns.
func (s *Service) Devices() int { return s.cfg.Devices }

// Shards returns the shard count.
func (s *Service) Shards() int { return len(s.shards) }

// Drain flips the service into drain mode: new work is refused with
// 503/CodeDraining while requests already admitted run to completion.
// Open telemetry streams finish their current event and close. Drain
// does not touch listeners — Server.Drain pairs it with
// http.Server.Shutdown for the full SIGTERM sequence.
func (s *Service) Drain() { s.draining.Store(true) }

// shardFor maps a global device index to its shard, or an unknown-device
// error. With D devices over S shards, shard i starts at ⌊i·D/S⌋, so
// device d lies in the last shard starting at or before it: the largest
// i with i·D < (d+1)·S, which is ⌊((d+1)·S − 1)/D⌋.
func (s *Service) shardFor(device int) (*shard, error) {
	if device < 0 || device >= s.cfg.Devices {
		return nil, wire.Errorf(wire.CodeUnknownDevice,
			"device %d outside owned fleet [0, %d)", device, s.cfg.Devices)
	}
	return s.shards[((device+1)*len(s.shards)-1)/s.cfg.Devices], nil
}

// Handler returns the service's HTTP routes wrapped in the resilience
// middleware chain (recover → chaos → overload gate → deadline → mux;
// see middleware.go).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/batch-solve", s.handleBatchSolve)
	mux.HandleFunc("POST /v1/report", s.handleReport)
	mux.HandleFunc("POST /v1/alpha", s.handleAlpha)
	mux.HandleFunc("POST /v1/telemetry", s.handleTelemetry)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/replicate", s.handleReplicate)
	mux.HandleFunc("POST /v1/replicate/ack", s.handleReplicateAck)
	mux.HandleFunc("POST /v1/promote", s.handlePromote)
	var h http.Handler = mux
	h = s.deadlineMiddleware(h)
	h = s.gateMiddleware(h)
	if s.chaos != nil {
		h = s.chaos.Middleware(h)
	}
	return s.recoverMiddleware(h)
}

// admit runs the cross-cutting request gates — drain state, then the
// tenant token bucket at the given solve cost — writing the refusal
// itself when the request may not proceed.
func (s *Service) admit(w http.ResponseWriter, r *http.Request, cost float64) bool {
	if s.draining.Load() {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeError(w, http.StatusServiceUnavailable,
			wire.Errorf(wire.CodeDraining, "server is draining"))
		return false
	}
	if s.limiter == nil || cost <= 0 {
		return true
	}
	tenant := tenantOf(r)
	retryAfter, ok := s.limiter.admit(tenant, cost)
	if !ok {
		s.rateLimited.Add(1)
		secs := int(math.Ceil(retryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests,
			wire.Errorf(wire.CodeRateLimited, "tenant %q over admission rate, retry in %ds", tenant, secs))
		return false
	}
	return true
}

// tenantOf names the admission tenant of r: its X-Tenant header, or
// "default".
func tenantOf(r *http.Request) string {
	if tenant := r.Header.Get("X-Tenant"); tenant != "" {
		return tenant
	}
	return "default"
}

// decode reads a JSON handler's body into req strictly and checks the
// wire version that decoding stored at v, req's "v" field, answering
// 400 itself when either fails.
func decode(w http.ResponseWriter, r *http.Request, req any, v *int) bool {
	err := wire.DecodeStrict(r.Body, req)
	if err == nil {
		err = wire.CheckVersion(*v)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, wire.AsError(err))
		return false
	}
	return true
}

func (s *Service) handleSolve(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r, 1) {
		return
	}
	var req wire.SolveRequest
	if !decode(w, r, &req, &req.V) {
		return
	}
	if s.testHookSolve != nil {
		s.testHookSolve()
	}
	if err := wire.CheckSolver(req.Solver); err != nil {
		writeError(w, http.StatusBadRequest, wire.AsError(err))
		return
	}
	cfg := req.Config.ToReap()
	alloc, err := reap.Solve(r.Context(), cfg, req.BudgetJ)
	if err != nil {
		werr := wire.AsError(err)
		writeError(w, statusFor(werr), werr)
		return
	}
	s.solves.Add(1)
	writeBody(w, http.StatusOK, func(dst []byte) ([]byte, error) { return wire.AppendSolve(dst, cfg, alloc) })
}

func (s *Service) handleBatchSolve(w http.ResponseWriter, r *http.Request) {
	// Charging admission per item keeps one tenant's 10k-item batch
	// from being cheaper than 10k solos; the body must decode first to
	// know the cost, so decode precedes admission here.
	var req wire.BatchSolveRequest
	if !decode(w, r, &req, &req.V) {
		return
	}
	if !s.admit(w, r, float64(len(req.Items))) {
		return
	}
	reqs := wire.ToRequests(req.Items)
	results := reap.SolveBatch(r.Context(), reqs)
	for i := range req.Items {
		if err := wire.CheckSolver(req.Items[i].Solver); err != nil {
			results[i] = reap.Result{Err: err}
		}
	}
	s.batchItems.Add(uint64(len(req.Items)))
	writeBody(w, http.StatusOK, func(dst []byte) ([]byte, error) { return wire.AppendBatchSolve(dst, reqs, results) })
}

func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r, 0) { // reports are cheap: drain-gated, not rate-charged
		return
	}
	if !s.gateWrite(w, r) {
		return
	}
	var req wire.ReportRequest
	if !decode(w, r, &req, &req.V) {
		return
	}
	accepted, werr := s.applyReportBatch(req.Reports)
	if werr != nil {
		writeError(w, statusFor(werr), werr)
		return
	}
	writeJSON(w, http.StatusOK, &wire.ReportResponse{V: wire.Version, Accepted: accepted})
}

// applyReportBatch applies device reports in request order as one
// mutation, so a batch costs one journal append whatever shards its
// devices fall in (the difference between ~90% and <15% journaling
// overhead, see BenchmarkReportPath). On failure the applied-and-
// journaled prefix stays applied; the error names the report that
// stopped the batch.
func (s *Service) applyReportBatch(reports []wire.DeviceReport) (int, *wire.Error) {
	return s.mutate(&journalEvent{op: evReport, reports: reports}, nil)
}

// mutate is the one way a request changes fleet state. It locks the
// shards of ev's longest valid prefix in ascending order, applies that
// prefix with applyEvent, and journals what applied as one record
// before the locks are released, so the journal's per-shard
// subsequence is the order mutations ran in. It returns how many of
// ev's mutations applied and the error that stopped the rest: a device
// outside the fleet, a quarantined shard, a controller's refusal or a
// journal failure. A panic is contained, charged to the shard of the
// device it hit and not journaled. A step's schedule goes to alloc.
// mutate cuts ev to what it applied.
func (s *Service) mutate(ev *journalEvent, alloc *reap.Allocation) (n int, werr *wire.Error) {
	var buf [defaultShards]*shard
	shs, valid, werr := s.shardsOf(ev, buf[:0])
	if valid == 0 {
		return 0, werr
	}
	lockShards(shs)
	defer unlockShards(shs)
	defer func() {
		if rec := recover(); rec != nil {
			sh, _ := s.shardFor(ev.deviceOf(n))
			werr = s.shardPanic(sh, rec)
		}
	}()
	if ev.op == evReport && s.testHookReport != nil {
		s.testHookReport()
	}
	ev.cut(valid)
	if err := s.applyEvent(ev, alloc, &n); err != nil {
		werr = wire.AsError(err)
	}
	if n > 0 {
		ev.cut(n)
		if jerr := s.journalAppend(ev); jerr != nil && werr == nil {
			werr = jerr
		}
	}
	return n, werr
}

// shardsOf resolves the shards ev's mutations touch. It returns the
// shards of ev's longest valid prefix, appended to buf in ascending
// order, the prefix's length, and the error that ended it: a device
// outside the fleet or a quarantined shard.
func (s *Service) shardsOf(ev *journalEvent, buf []*shard) ([]*shard, int, *wire.Error) {
	shs, n := buf, ev.mutations()
	for i := range n {
		sh, err := s.shardFor(ev.deviceOf(i))
		if err != nil {
			return shs, i, wire.AsError(err)
		}
		j := len(shs) // insertion point; O(1) for a batch in device order
		for j > 0 && shs[j-1].lo > sh.lo {
			j--
		}
		if j > 0 && shs[j-1] == sh {
			continue
		}
		if werr := s.checkShard(sh); werr != nil {
			return shs, i, werr
		}
		shs = slices.Insert(shs, j, sh)
	}
	return shs, n, nil
}

// lockShards locks shs, which must be in ascending order: the one lock
// order of every path that holds more than one shard, which keeps them
// deadlock-free. unlockShards releases them in reverse.
func lockShards(shs []*shard) {
	for _, sh := range shs {
		sh.mu.Lock()
	}
}

func unlockShards(shs []*shard) {
	for i := len(shs) - 1; i >= 0; i-- {
		shs[i].mu.Unlock()
	}
}

// checkShard refuses work for a quarantined shard: after
// QuarantineAfter panics inside its critical sections, the shard's
// state can no longer be trusted and its devices answer 503 until the
// process restarts (and replays a journal of only acknowledged,
// pre-panic mutations).
func (s *Service) checkShard(sh *shard) *wire.Error {
	if sh.breaker.Quarantined() {
		return wire.Errorf(wire.CodeShardQuarantined,
			"shard owning devices [%d, %d) is quarantined after repeated panics", sh.lo, sh.hi)
	}
	return nil
}

// shardPanic contains a panic recovered inside a shard's critical
// section: it is counted against the service and, when known, the
// shard's breaker, and answers as 500/CodePanic. The shard locks still
// release through their own deferred unlocks.
func (s *Service) shardPanic(sh *shard, rec any) *wire.Error {
	s.panics.Add(1)
	if sh != nil {
		sh.breaker.RecordPanic()
	}
	return wire.Errorf(wire.CodePanic, "shard handler panicked: %v", rec)
}

func (s *Service) handleAlpha(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r, 0) { // config changes are rare: drain-gated only
		return
	}
	if !s.gateWrite(w, r) {
		return
	}
	var req wire.AlphaRequest
	if !decode(w, r, &req, &req.V) {
		return
	}
	if _, werr := s.mutate(&journalEvent{op: evAlpha, device: req.Device, value: req.Alpha}, nil); werr != nil {
		writeError(w, statusFor(werr), werr)
		return
	}
	writeJSON(w, http.StatusOK, &wire.AlphaResponse{V: wire.Version, Device: req.Device, Alpha: req.Alpha})
}

// maxTelemetryLine is the longest telemetry line the stream reads.
const maxTelemetryLine = 1 << 20

// handleTelemetry is the streaming ingest endpoint: NDJSON
// TelemetryEvent lines in, one TelemetryResult line out per event, in
// order, flushed per event so devices see their allocation as soon as
// it is planned. The stream is full duplex: over HTTP/1.1 net/http
// otherwise stops reading the body at the first flush. Per-event
// failures answer on the stream and keep it open. A line longer than
// maxTelemetryLine ends the stream with one malformed_request result,
// since no later line boundary can be found past it; a body that fails
// (a client gone mid-line) ends it without one. A drain finishes the
// in-flight event and then closes the stream, so SIGTERM never abandons
// a half-processed event.
func (s *Service) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r, 0) { // charged per event below, not per stream
		return
	}
	if !s.gateWrite(w, r) { // every telemetry event mutates state
		return
	}
	// A writer with no connection behind it, such as httptest's
	// recorder, has no duplex to enable.
	_ = http.NewResponseController(w).EnableFullDuplex()
	tenant := tenantOf(r)
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 64*1024), maxTelemetryLine)
	sc.Split(scanCompleteLines)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev wire.TelemetryEvent
		res := s.telemetryEvent(r.Context(), tenant, line, &ev)
		if err := enc.Encode(res); err != nil {
			return // client went away
		}
		if flusher != nil {
			flusher.Flush()
		}
		if s.draining.Load() {
			return // finish current event, then close the stream
		}
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		// The stream ends either way; a failed write means the client left.
		_ = enc.Encode(&wire.TelemetryResult{V: wire.Version, Device: -1,
			Error: wire.Errorf(wire.CodeMalformed, "telemetry line longer than %d bytes", maxTelemetryLine)})
	}
}

// scanCompleteLines is bufio.ScanLines minus its end-of-input special
// case: only newline-terminated lines are events. A client that dies
// mid-line leaves an unterminated tail, and treating that fragment as
// an event (as ScanLines would) turns every abrupt disconnect into a
// spurious malformed-event result; the fragment is dropped instead.
func scanCompleteLines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		line := data[:i]
		if len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
		return i + 1, line, nil
	}
	if atEOF {
		// Unterminated tail: consume without emitting.
		return len(data), nil, nil
	}
	return 0, nil, nil
}

// telemetryEvent processes one NDJSON line: strict decode, version and
// admission checks, then consumption report and/or harvest step.
func (s *Service) telemetryEvent(ctx context.Context, tenant string, line []byte, ev *wire.TelemetryEvent) *wire.TelemetryResult {
	res := &wire.TelemetryResult{V: wire.Version, Device: -1}
	if err := wire.DecodeStrict(bytes.NewReader(line), ev); err != nil {
		res.Error = wire.AsError(err)
		return res
	}
	res.Device = ev.Device
	if err := wire.CheckVersion(ev.V); err != nil {
		res.Error = wire.AsError(err)
		return res
	}
	// A step is a solve; charge it like one. Reports stay uncharged.
	if ev.HarvestJ != nil && s.limiter != nil {
		if retry, ok := s.limiter.admit(tenant, 1); !ok {
			s.rateLimited.Add(1)
			res.Error = wire.Errorf(wire.CodeRateLimited,
				"over admission rate, retry in %v", retry.Round(time.Millisecond))
			return res
		}
	}
	if ev.ConsumedJ != nil {
		if _, werr := s.applyReportBatch([]wire.DeviceReport{{Device: ev.Device, ConsumedJ: *ev.ConsumedJ}}); werr != nil {
			res.Error = werr
			return res
		}
	}
	if ev.HarvestJ != nil {
		// A plan solve takes microseconds, so the request's context is
		// checked once, before the step takes its shard lock.
		if err := ctx.Err(); err != nil {
			res.Error = wire.AsError(err)
			return res
		}
		var alloc reap.Allocation
		if _, werr := s.mutate(&journalEvent{op: evStep, device: ev.Device, value: *ev.HarvestJ}, &alloc); werr != nil {
			res.Error = werr
			return res
		}
		wa := wire.FromAllocation(alloc)
		res.Allocation = &wa
	}
	return res
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// Stats snapshots the service counters.
func (s *Service) Stats() *wire.StatsResponse {
	resp := &wire.StatsResponse{
		V:           wire.Version,
		Devices:     s.cfg.Devices,
		Shards:      len(s.shards),
		Solves:      s.solves.Load(),
		BatchItems:  s.batchItems.Load(),
		Steps:       s.steps.Load(),
		Reports:     s.reports.Load(),
		AlphaSets:   s.alphaSets.Load(),
		RateLimited: s.rateLimited.Load(),
		Shed:        s.gate.Shed(),
		Panics:      s.panics.Load(),
		Draining:    s.draining.Load(),
	}
	// TotalBatteryJ is the reconciliation handle for crash tests and
	// operators alike: one number that moves with every journaled
	// mutation, summed under the shard locks.
	for _, sh := range s.shards {
		if sh.breaker.Quarantined() {
			resp.ShardsQuarantined++
		}
		sh.mu.Lock()
		for d := sh.lo; d < sh.hi; d++ {
			if ctl, err := s.fleet.Device(d); err == nil {
				resp.TotalBatteryJ += ctl.Battery()
			}
		}
		sh.mu.Unlock()
	}
	if s.store != nil {
		js := s.store.Stats()
		resp.Journal = &wire.JournalStats{
			Seq:         js.Seq,
			SnapshotSeq: js.SnapshotSeq,
			Replayed:    js.Replayed,
			Appended:    js.Appended,
			TornTail:    js.TornTail,
			Compactions: js.Compactions,
			FsyncPolicy: s.cfg.FsyncPolicy,
		}
	}
	resp.Replication = s.replicationStats()
	return resp
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := &wire.HealthzResponse{V: wire.Version, Status: wire.HealthOK}
	if s.cfg.JournalDir != "" {
		resp.Role = s.role()
		resp.Epoch = s.epoch.Load()
		if s.follower.Load() {
			if lf := s.lastFrame.Load(); lf != 0 {
				lag := time.Since(time.Unix(0, lf)).Seconds()
				resp.ReplicationLagS = &lag
			}
		}
	}
	if s.draining.Load() {
		resp.Status = wire.HealthDraining
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// statusFor maps wire error codes onto HTTP statuses.
func statusFor(e *wire.Error) int {
	switch e.Code {
	case wire.CodeMalformed, wire.CodeUnknownVersion, wire.CodeInvalidConfig,
		wire.CodeBudgetNegative, wire.CodeUnknownSolver, wire.CodeUnknownDevice:
		return http.StatusBadRequest
	case wire.CodeRateLimited:
		return http.StatusTooManyRequests
	case wire.CodeDraining, wire.CodeOverloaded, wire.CodeShardQuarantined,
		wire.CodeNotPrimary, wire.CodeDegraded:
		return http.StatusServiceUnavailable
	case wire.CodeStaleEpoch:
		return http.StatusConflict
	case wire.CodeDeadlineExceeded:
		return http.StatusGatewayTimeout
	case wire.CodeInfeasible, wire.CodeSolverFailure:
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// maxPooledResponse caps the capacity of a response buffer returned to
// respBufs: one outsized answer must not pin its memory in the pool.
const maxPooledResponse = 1 << 20

var respBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeJSON answers with v's JSON encoding through writeBody.
func writeJSON(w http.ResponseWriter, status int, v any) {
	writeBody(w, status, func(dst []byte) ([]byte, error) { return wire.AppendJSON(dst, v) })
}

// writeBody has encode append the whole body to a pooled buffer before
// the header goes out, so every response carries Content-Length instead
// of a chunked body, and a value that cannot be encoded (a NaN or
// infinite float) answers 500/internal rather than an empty 200.
func writeBody(w http.ResponseWriter, status int, encode func([]byte) ([]byte, error)) {
	bp := respBufs.Get().(*[]byte)
	body, err := encode((*bp)[:0])
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = wire.AppendJSON(body[:0], &wire.ErrorResponse{V: wire.Version,
			Error: wire.Error{Code: wire.CodeInternal, Message: fmt.Sprintf("encoding response: %v", err)}})
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write means the client went away
	if cap(body) <= maxPooledResponse {
		*bp = body
		respBufs.Put(bp)
	}
}

func writeError(w http.ResponseWriter, status int, e *wire.Error) {
	writeJSON(w, status, &wire.ErrorResponse{V: wire.Version, Error: *e})
}

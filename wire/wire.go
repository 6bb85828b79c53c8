// Package wire defines the versioned request/response structs of the
// reapd fleet-allocation service — the one vocabulary shared verbatim
// by the daemon (cmd/reapd via internal/service), its clients
// (cmd/reapload), and any program that wants to speak the protocol
// without linking the solver.
//
// Schema policy (see DESIGN.md "The wire schema"):
//
//   - Every request and response carries an explicit schema version in
//     its "v" field. A server only accepts versions it knows
//     (CheckVersion); an unversioned request is a version-0 request and
//     is rejected, so old clients fail loudly instead of being
//     misparsed.
//   - Requests decode strictly (DecodeStrict): unknown fields are
//     errors. Within a version the schema may only grow by adding
//     optional response fields — request fields are frozen, so a
//     client's request either round-trips exactly or fails with
//     CodeMalformed. Breaking changes bump Version.
//   - Errors are structured: machine-stable Code strings derived from
//     the public sentinel error taxonomy (CodeForError), plus a
//     human-readable message that carries no stability promise.
//
// Fields name their units (energy in joules "_j", power in watts "_w",
// time in seconds "_s") — the same discipline as the solver API, where a
// silent unit mismatch is the classic wrong-answer bug.
package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Version is the current wire-schema version. Requests must carry it in
// their "v" field; responses echo it.
const Version = 1

// CheckVersion validates a request's schema version field, returning a
// *Error with CodeUnknownVersion for versions this build does not
// speak (including 0, the value of a request that omitted "v").
func CheckVersion(v int) error {
	if v != Version {
		return &Error{
			Code:    CodeUnknownVersion,
			Message: fmt.Sprintf("wire version %d not supported (this build speaks v%d)", v, Version),
		}
	}
	return nil
}

// DecodeStrict decodes one JSON value from r into dst, rejecting
// unknown fields and trailing garbage — the request-side contract: a
// payload either matches the schema exactly or fails with an error
// suitable for CodeMalformed. Decode failures return a *Error so
// handlers map them to a response without re-classifying.
//
// It reads the whole body into a pooled buffer first. For
// *SolveRequest, *BatchSolveRequest and *ReportRequest (the daemon's
// per-call bodies), a single-pass scanner decodes the canonical subset
// of JSON that encoding/json emits, overwriting *dst; any other input,
// and every other type, goes through encoding/json from the same bytes
// (see codec.go). Both paths accept, reject and decode alike.
func DecodeStrict(r io.Reader, dst any) error {
	d := decoders.Get().(*decoder)
	defer d.release()
	d.buf.Reset()
	if _, err := d.buf.ReadFrom(r); err != nil {
		return decodeStd(io.MultiReader(bytes.NewReader(d.buf.Bytes()), errReader{err}), dst)
	}
	d.data, d.pos = d.buf.Bytes(), 0
	if d.scan(dst) {
		return nil
	}
	return decodeStd(bytes.NewReader(d.data), dst)
}

// decodeStd is DecodeStrict on encoding/json's stream decoder.
func decodeStd(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return &Error{Code: CodeMalformed, Message: fmt.Sprintf("decoding request: %v", err)}
	}
	// A second Decode must see EOF: two values in one body means the
	// caller is confused about framing (NDJSON belongs on the telemetry
	// endpoint, nowhere else).
	if err := dec.Decode(&json.RawMessage{}); err != io.EOF {
		return &Error{Code: CodeMalformed, Message: "trailing data after JSON value"}
	}
	return nil
}

// DesignPoint is one operating configuration offered to the optimizer:
// a recognition accuracy in [0, 1] and the power drawn running it.
type DesignPoint struct {
	Name     string  `json:"name,omitempty"`
	Accuracy float64 `json:"accuracy"`
	PowerW   float64 `json:"power_w"`
}

// Config describes the allocation problem. The zero value (or an
// absent config) selects the paper's defaults: one-hour period, 50 µW
// off-state power, α = 1, the five Table 2 design points. POffW and
// Alpha are pointers because zero is a legal value for both — absent
// means "default", explicit 0 means 0.
type Config struct {
	PeriodS      float64       `json:"period_s,omitempty"`
	POffW        *float64      `json:"poff_w,omitempty"`
	Alpha        *float64      `json:"alpha,omitempty"`
	DesignPoints []DesignPoint `json:"design_points,omitempty"`
}

// Allocation is a solved schedule: seconds of runtime per design point
// (aligned with the config's design-point order), plus off and dead
// time.
type Allocation struct {
	ActiveS []float64 `json:"active_s"`
	OffS    float64   `json:"off_s"`
	DeadS   float64   `json:"dead_s"`
}

// SolveRequest asks for one allocation: POST /v1/solve.
type SolveRequest struct {
	V       int     `json:"v"`
	Config  *Config `json:"config,omitempty"`
	BudgetJ float64 `json:"budget_j"`
	// Solver names a registered backend; empty selects the default
	// (the compiled parametric plan).
	Solver string `json:"solver,omitempty"`
}

// SolveResponse answers a SolveRequest.
type SolveResponse struct {
	V          int        `json:"v"`
	Allocation Allocation `json:"allocation"`
	// EnergyJ is the energy the schedule consumes; ≤ the request budget.
	EnergyJ float64 `json:"energy_j"`
	// ExpectedAccuracy is the accuracy averaged over active time, 0 when
	// the schedule has no active time.
	ExpectedAccuracy float64 `json:"expected_accuracy"`
}

// BatchSolveRequest asks for many independent allocations in one round
// trip: POST /v1/batch-solve. Items share nothing but the connection —
// per-item failures are per-item results, not request failures.
type BatchSolveRequest struct {
	V     int         `json:"v"`
	Items []SolveItem `json:"items"`
}

// SolveItem is one solve within a batch: SolveRequest minus the
// envelope version.
type SolveItem struct {
	Config  *Config `json:"config,omitempty"`
	BudgetJ float64 `json:"budget_j"`
	Solver  string  `json:"solver,omitempty"`
}

// BatchSolveResponse answers a BatchSolveRequest; Results[i] answers
// Items[i], carrying exactly one of Solve or Error.
type BatchSolveResponse struct {
	V       int           `json:"v"`
	Results []SolveResult `json:"results"`
}

// SolveResult is one batch item's outcome.
type SolveResult struct {
	Solve *SolveResponse `json:"solve,omitempty"`
	Error *Error         `json:"error,omitempty"`
}

// ReportRequest closes the feedback loop for owned devices: POST
// /v1/report. Each entry reports the energy a device actually consumed
// executing its last planned period.
type ReportRequest struct {
	V       int            `json:"v"`
	Reports []DeviceReport `json:"reports"`
}

// DeviceReport is one device's measured consumption.
type DeviceReport struct {
	Device    int     `json:"device"`
	ConsumedJ float64 `json:"consumed_j"`
}

// ReportResponse acknowledges a ReportRequest.
type ReportResponse struct {
	V        int `json:"v"`
	Accepted int `json:"accepted"`
}

// TelemetryEvent is one line of the NDJSON stream on POST
// /v1/telemetry: a device reporting harvested energy (the service
// plans its next period and streams the allocation back) and/or
// measured consumption (the service closes its accounting loop).
type TelemetryEvent struct {
	V      int `json:"v"`
	Device int `json:"device"`
	// HarvestJ, when present, is the energy the device expects for its
	// next period; the service steps the device and answers with its
	// allocation.
	HarvestJ *float64 `json:"harvest_j,omitempty"`
	// ConsumedJ, when present, is the measured consumption of the
	// previously planned period, applied before any HarvestJ step in
	// the same event.
	ConsumedJ *float64 `json:"consumed_j,omitempty"`
}

// TelemetryResult is the response line streamed back for each
// TelemetryEvent, in input order.
type TelemetryResult struct {
	V          int         `json:"v"`
	Device     int         `json:"device"`
	Allocation *Allocation `json:"allocation,omitempty"`
	Error      *Error      `json:"error,omitempty"`
}

// AlphaRequest changes one owned device's accuracy/active-time
// emphasis at runtime: POST /v1/alpha. It is a state-mutating request,
// journaled like reports and telemetry steps.
type AlphaRequest struct {
	V      int     `json:"v"`
	Device int     `json:"device"`
	Alpha  float64 `json:"alpha"`
}

// AlphaResponse acknowledges an AlphaRequest.
type AlphaResponse struct {
	V      int     `json:"v"`
	Device int     `json:"device"`
	Alpha  float64 `json:"alpha"`
}

// StatsResponse is GET /v1/stats: service-level counters. Journal is nil
// when the daemon runs without crash-safe state.
type StatsResponse struct {
	V           int    `json:"v"`
	Devices     int    `json:"devices"`
	Shards      int    `json:"shards"`
	Solves      uint64 `json:"solves"`
	BatchItems  uint64 `json:"batch_items"`
	Steps       uint64 `json:"steps"`
	Reports     uint64 `json:"reports"`
	AlphaSets   uint64 `json:"alpha_sets"`
	RateLimited uint64 `json:"rate_limited"`
	// Shed counts requests refused by queue-depth admission before any
	// work was done (503 + Retry-After, CodeOverloaded).
	Shed uint64 `json:"shed"`
	// Panics counts handler panics converted to responses by the
	// recover boundary; ShardsQuarantined counts shards refusing work
	// after repeated panics.
	Panics            uint64 `json:"panics"`
	ShardsQuarantined int    `json:"shards_quarantined"`
	// TotalBatteryJ sums every owned device's battery charge — the
	// fleet aggregate that must reconcile across a crash and replay.
	TotalBatteryJ float64           `json:"total_battery_j"`
	Draining      bool              `json:"draining"`
	Journal       *JournalStats     `json:"journal,omitempty"`
	Replication   *ReplicationStats `json:"replication,omitempty"`
}

// JournalStats mirrors the write-ahead journal's counters on the wire.
type JournalStats struct {
	// Seq is the total number of state-mutating events in history.
	Seq uint64 `json:"seq"`
	// SnapshotSeq is the event count covered by the newest snapshot.
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// Replayed counts events re-applied at boot; Appended counts
	// events logged since.
	Replayed uint64 `json:"replayed"`
	Appended uint64 `json:"appended"`
	// TornTail reports that boot truncated a torn journal tail.
	TornTail bool `json:"torn_tail"`
	// Compactions counts snapshots written since boot.
	Compactions uint64 `json:"compactions"`
	// FsyncPolicy names the configured durability policy: "always",
	// "interval" or "never".
	FsyncPolicy string `json:"fsync_policy"`
}

// ReplicationStats is the hot-standby replication block of /v1/stats.
// Role decides which halves are meaningful: a primary reports its
// followers' positions, a follower reports its own stream health.
type ReplicationStats struct {
	// Role is "primary" or "follower".
	Role string `json:"role"`
	// Epoch is the node's current fencing term.
	Epoch uint64 `json:"epoch"`
	// Primary (follower only) is the address being tailed; Connected
	// whether the stream is currently up.
	Primary   string `json:"primary,omitempty"`
	Connected bool   `json:"connected,omitempty"`
	// LagEvents (follower) is primary seq minus locally applied seq as
	// of the last frame; LagS how long since any frame arrived.
	LagEvents uint64  `json:"lag_events,omitempty"`
	LagS      float64 `json:"lag_s,omitempty"`
	// Applied counts replicated events applied; Reconnects stream
	// re-establishments; Resyncs snapshot re-bootstraps forced by
	// divergence or retention.
	Applied    uint64 `json:"applied,omitempty"`
	Reconnects uint64 `json:"reconnects,omitempty"`
	Resyncs    uint64 `json:"resyncs,omitempty"`
	// Followers (primary only) is the per-follower shipped/acked view.
	Followers []FollowerLag `json:"followers,omitempty"`
}

// FollowerLag is one follower's position as the primary sees it.
type FollowerLag struct {
	ID string `json:"id"`
	// Live reports an attached stream; a false entry is the last known
	// ack of a detached follower.
	Live       bool    `json:"live"`
	ShippedSeq uint64  `json:"shipped_seq"`
	AckSeq     uint64  `json:"ack_seq"`
	AckAgeS    float64 `json:"ack_age_s"`
}

// PromoteRequest is POST /v1/promote: the admin failover action that
// turns a follower into the primary, bumping the fencing epoch.
type PromoteRequest struct {
	V int `json:"v"`
}

// PromoteResponse acknowledges a promotion (idempotent on a node that
// is already primary) with the epoch now in force and the journal
// position the node serves from.
type PromoteResponse struct {
	V     int    `json:"v"`
	Role  string `json:"role"`
	Epoch uint64 `json:"epoch"`
	Seq   uint64 `json:"seq"`
}

// ReplicateAckRequest is POST /v1/replicate/ack: a follower reporting
// the sequence number it has durably applied through, so the primary's
// lag accounting stays honest between stream frames.
type ReplicateAckRequest struct {
	V     int    `json:"v"`
	ID    string `json:"id"`
	Epoch uint64 `json:"epoch"`
	Seq   uint64 `json:"seq"`
}

// ReplicateAckResponse acknowledges an ack.
type ReplicateAckResponse struct {
	V int `json:"v"`
}

// HealthzResponse is the GET /healthz body. Status is machine-readable
// so orchestrators can tell a draining daemon (which will exit soon and
// must stop receiving traffic, 503) from a dead one (no answer at all):
// "ok" or "draining".
//
// Role/Epoch/ReplicationLagS surface the replication state a load
// balancer routes on: "primary" accepts mutations, "follower" serves
// solves and names its leader, "degraded" is a primary refusing
// mutations (disk full) whose solves still work.
type HealthzResponse struct {
	V      int    `json:"v"`
	Status string `json:"status"`
	// Role is "primary", "follower" or "degraded"; empty for a daemon
	// running without a journal (implicitly a primary with no
	// replication machinery).
	Role string `json:"role,omitempty"`
	// Epoch is the fencing term currently in force.
	Epoch uint64 `json:"epoch,omitempty"`
	// ReplicationLagS (follower only) is seconds since the last frame
	// arrived from the primary; nil otherwise.
	ReplicationLagS *float64 `json:"replication_lag_s,omitempty"`
}

// Healthz status values.
const (
	HealthOK       = "ok"
	HealthDraining = "draining"
)

// Healthz role values. degraded (read-only: journal disk full) and
// fenced (a higher epoch is in force elsewhere) are what a load
// balancer must route mutations away from.
const (
	RolePrimary  = "primary"
	RoleFollower = "follower"
	RoleDegraded = "degraded"
	RoleFenced   = "fenced"
)

// Stable error codes. Codes are part of the wire contract: clients
// branch on them, so existing codes never change meaning; new failure
// modes get new codes.
const (
	// CodeInvalidConfig: the request's configuration failed validation.
	CodeInvalidConfig = "invalid_config"
	// CodeBudgetNegative: a budget, harvest or consumption value was
	// negative or NaN, or a consumption so large that the device's
	// carry would overflow.
	CodeBudgetNegative = "budget_negative"
	// CodeInfeasible: the allocation LP has no feasible solution.
	CodeInfeasible = "infeasible"
	// CodeSolverFailure: the solver terminated without an optimum for a
	// reason other than infeasibility.
	CodeSolverFailure = "solver_failure"
	// CodeUnknownSolver: the named solver backend is not registered.
	CodeUnknownSolver = "unknown_solver"
	// CodeUnknownDevice: a device index outside the fleet the service
	// owns.
	CodeUnknownDevice = "unknown_device"
	// CodeUnknownVersion: the request's "v" field names a schema
	// version this server does not speak.
	CodeUnknownVersion = "unknown_version"
	// CodeMalformed: the body was not valid JSON for the endpoint's
	// request type (syntax error, unknown field, trailing data).
	CodeMalformed = "malformed_request"
	// CodeRateLimited: the tenant exceeded its admission rate; retry
	// after the Retry-After header's delay.
	CodeRateLimited = "rate_limited"
	// CodeDraining: the server is shutting down and no longer admits
	// new work.
	CodeDraining = "draining"
	// CodeDeadlineExceeded: the request's deadline (X-Deadline-Ms,
	// capped by server policy) expired before the work finished.
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeOverloaded: queue-depth admission shed the request before any
	// work was done; retry after the Retry-After header's delay.
	CodeOverloaded = "overloaded"
	// CodePanic: the handler panicked; the recover boundary converted
	// it into this response instead of crashing the daemon.
	CodePanic = "panic"
	// CodeShardQuarantined: the shard owning the requested device is
	// quarantined after repeated panics; other shards still serve.
	CodeShardQuarantined = "shard_quarantined"
	// CodeNotPrimary: this node is a replication follower; mutations go
	// to the primary named by the Leader response header.
	CodeNotPrimary = "not_primary"
	// CodeStaleEpoch: the request's fencing epoch and the node's
	// disagree — one of the two is a fenced ex-primary. Re-resolve the
	// leader and its epoch before retrying.
	CodeStaleEpoch = "stale_epoch"
	// CodeDegraded: the node's journal disk is full; it serves stateless
	// solves but refuses mutations until an operator intervenes.
	CodeDegraded = "degraded"
	// CodeInternal: any failure the taxonomy does not classify.
	CodeInternal = "internal"
)

// Error is the structured error carried in responses; it implements
// error so service code can return it directly.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *Error) Error() string { return e.Code + ": " + e.Message }

// ErrorResponse is the top-level body of every non-2xx response.
type ErrorResponse struct {
	V     int   `json:"v"`
	Error Error `json:"error"`
}

// Errorf builds a *Error with a formatted message.
func Errorf(code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// AsError extracts a *Error from an error chain, classifying through
// CodeForError when the chain carries no wire error — the single seam
// where solver errors become wire codes.
func AsError(err error) *Error {
	var we *Error
	if errors.As(err, &we) {
		return we
	}
	return &Error{Code: CodeForError(err), Message: err.Error()}
}

package server

import (
	"fmt"
	"strconv"

	"cuttlego/internal/bits"
)

// This file is the JSON wire vocabulary of the ksimd HTTP API, shared with
// the thin client (internal/kclient). Register payloads travel as hex
// strings rather than JSON numbers: a 64-bit value does not survive the
// float64 round trip JSON numbers take.

// RegValue is one register value on the wire.
type RegValue struct {
	Width int    `json:"width"`
	Hex   string `json:"hex"`
}

// FromBits converts an engine value to its wire form.
func FromBits(b bits.Bits) RegValue {
	return RegValue{Width: b.Width, Hex: strconv.FormatUint(b.Val, 16)}
}

// Bits converts a wire value back to an engine value, validating width and
// payload range.
func (v RegValue) Bits() (bits.Bits, error) {
	if v.Width < 0 || v.Width > bits.MaxWidth {
		return bits.Bits{}, fmt.Errorf("register width %d out of range [0, %d]", v.Width, bits.MaxWidth)
	}
	if v.Hex == "" {
		return bits.Bits{Width: v.Width}, nil
	}
	val, err := strconv.ParseUint(v.Hex, 16, 64)
	if err != nil {
		return bits.Bits{}, fmt.Errorf("register payload %q is not a hex value", v.Hex)
	}
	if val&^bits.Mask(v.Width) != 0 {
		return bits.Bits{}, fmt.Errorf("payload %q exceeds %d bits", v.Hex, v.Width)
	}
	return bits.Bits{Width: v.Width, Val: val}, nil
}

// CreateRequest creates a session. Exactly one of Source (.koika text,
// elaborated by the textual frontend) or Catalog (a design name from the
// kbench catalogue, built server-side with its deterministic workload) must
// be set.
type CreateRequest struct {
	Source  string `json:"source,omitempty"`
	Catalog string `json:"catalog,omitempty"`
	// ID, when set, names the new session instead of letting the daemon
	// mint one. Routing gateways use it so a session's id determines its
	// backend placement (consistent hashing needs the id before the create
	// lands). Claimed ids must be path-safe and not collide with a live or
	// stored session (409).
	ID string `json:"id,omitempty"`
	// Engine selects the simulation pipeline: "cuttlesim" (default),
	// "interp", "rtlsim", or "native" (the AOT tier — the design is
	// compiled to a standalone binary through the daemon's compile cache
	// and driven as a subprocess; needs -native-cache).
	Engine string `json:"engine,omitempty"`
	// Level is the cuttlesim optimization level by name ("static",
	// "activity", ...; default "static").
	Level string `json:"level,omitempty"`
	// Backend is "closure"/"bytecode" for cuttlesim, or
	// "switch"/"closure"/"fused" for rtlsim.
	Backend string `json:"backend,omitempty"`
	// Optimize runs the netlist optimizer before building rtlsim engines.
	Optimize bool `json:"optimize,omitempty"`
	// Workers is accepted for compatibility with clients of the retired
	// intra-design pools: any value >= 0 builds the sequential engine, a
	// negative value is refused.
	Workers int `json:"workers,omitempty"`
}

// SessionInfo describes one live session.
type SessionInfo struct {
	ID        string `json:"id"`
	Design    string `json:"design"`
	Engine    string `json:"engine"`
	Cycle     uint64 `json:"cycle"`
	Registers int    `json:"registers"`
	Rules     int    `json:"rules"`
	// Digest is the FNV-1a state digest (sim.StateDigest) as hex.
	Digest string `json:"digest"`
	// Durable reports whether the session can be checkpointed, forked, and
	// reverse-stepped (self-driving designs only: testbench state lives
	// outside the architectural snapshot).
	Durable bool `json:"durable"`
	// Restored is set when the session was rebuilt from a stored
	// checkpoint (after a daemon restart or an eviction).
	Restored bool `json:"restored,omitempty"`
	// State is empty for a healthy session, "wedged" when a step outlived
	// the server's watchdog, or "quarantined" when the engine panicked.
	// Failed sessions answer info/list from their last healthy observation
	// (Cycle and Digest may be stale) and 409 everything else.
	State string `json:"state,omitempty"`
	// Tier is "native" while the session executes on the AOT subprocess
	// tier (created with engine "native", or transparently promoted past
	// the daemon's -promote-after threshold), empty while it runs
	// in-process.
	Tier string `json:"tier,omitempty"`
	// Cow is set while the session is a copy-on-write fork that has not
	// diverged into its own engine yet: it shares its base session's
	// snapshot and keeps only register-granular overrides, so it costs
	// near-zero memory until first stepped.
	Cow bool `json:"cow,omitempty"`
}

// ListResponse enumerates live sessions.
type ListResponse struct {
	Sessions []SessionInfo `json:"sessions"`
}

// StepRequest advances a session. Cycles must be positive; the server caps
// it at its -max-step limit.
type StepRequest struct {
	Cycles uint64 `json:"cycles"`
}

// StepResponse reports how far a step actually got.
type StepResponse struct {
	// Ran is the number of cycles executed by this request.
	Ran uint64 `json:"ran"`
	// Cycle is the session's cycle count afterwards.
	Cycle uint64 `json:"cycle"`
	// Stopped is non-empty when the run ended early: a conditional
	// breakpoint description, or "timeout" when the per-request simulation
	// budget expired before Cycles cycles ran.
	Stopped string `json:"stopped,omitempty"`
	// Fired maps rule names to whether they committed in the last executed
	// cycle.
	Fired map[string]bool `json:"fired,omitempty"`
}

// RegsRequest batches register pokes (Set) and peeks (Get, or All for every
// register). Sets apply before gets, and both happen between cycles —
// exactly the testbench contract.
type RegsRequest struct {
	Get []string            `json:"get,omitempty"`
	All bool                `json:"all,omitempty"`
	Set map[string]RegValue `json:"set,omitempty"`
}

// RegsResponse returns the requested register values.
type RegsResponse struct {
	Cycle  uint64              `json:"cycle"`
	Values map[string]RegValue `json:"values"`
}

// RuleProfile is one rule's attempt/commit/skip counters.
type RuleProfile struct {
	Rule     string `json:"rule"`
	Attempts uint64 `json:"attempts"`
	Commits  uint64 `json:"commits"`
	Skipped  uint64 `json:"skipped,omitempty"`
}

// ProfileResponse returns per-rule profiles (cuttlesim sessions only).
type ProfileResponse struct {
	Cycle uint64        `json:"cycle"`
	Rules []RuleProfile `json:"rules"`
}

// BreakRequest installs a conditional breakpoint (Cond, textual-dialect
// expression over the design's registers) or clears all of them (Clear).
type BreakRequest struct {
	Cond  string `json:"cond,omitempty"`
	Clear bool   `json:"clear,omitempty"`
}

// CheckpointResponse describes a durable checkpoint.
type CheckpointResponse struct {
	// Checkpoint is the checkpoint id ("c<cycle>").
	Checkpoint string `json:"checkpoint"`
	Cycle      uint64 `json:"cycle"`
	Digest     string `json:"digest"`
}

// RestoreRequest rewinds a live session to one of its checkpoints
// (in-memory or durable).
type RestoreRequest struct {
	Checkpoint string `json:"checkpoint"`
}

// ResurrectRequest recreates a session from the durable store after a
// daemon restart or an eviction. Checkpoint defaults to the latest one.
type ResurrectRequest struct {
	Session    string `json:"session"`
	Checkpoint string `json:"checkpoint,omitempty"`
}

// ReverseRequest steps a session backwards.
type ReverseRequest struct {
	Cycles uint64 `json:"cycles"`
}

// ExportRequest tunes a session export. Release additionally retires the
// live session after its state is captured (checkpointing it durably first
// when a store is configured): this is the migration handoff — between the
// release and the import on the target node the session has no live owner
// anywhere, only durable state, so a crash mid-transfer can at worst
// re-home it from its last checkpoint, never duplicate it.
type ExportRequest struct {
	Release bool `json:"release,omitempty"`
}

// ExportResponse is a session's complete portable state: the rebuild recipe
// (source/catalog + engine config, exactly what meta.json stores) and a
// KSNP v2 snapshot, plus the digest and cycle the importer must gate on.
// Snapshot travels base64-encoded inside the JSON envelope.
type ExportResponse struct {
	ID       string       `json:"id"`
	Source   string       `json:"source,omitempty"`
	Catalog  string       `json:"catalog,omitempty"`
	Config   EngineConfig `json:"config"`
	Cycle    uint64       `json:"cycle"`
	Digest   string       `json:"digest"`
	Snapshot []byte       `json:"snapshot"`
	Released bool         `json:"released,omitempty"`
}

// ImportRequest resurrects an exported session on this daemon. The importer
// rebuilds the engine from the recipe, restores the snapshot, and admits
// the session only when the restored engine's StateDigest and cycle count
// equal the Digest/Cycle the exporter promised — a lying transfer is
// discarded, never served.
type ImportRequest struct {
	ID       string       `json:"id"`
	Source   string       `json:"source,omitempty"`
	Catalog  string       `json:"catalog,omitempty"`
	Config   EngineConfig `json:"config"`
	Cycle    uint64       `json:"cycle"`
	Digest   string       `json:"digest"`
	Snapshot []byte       `json:"snapshot"`
}

// MigrateRequest asks the routing gateway to move a session to another
// backend (checkpoint → transfer → resurrect). Target names a backend by
// its router name ("b1") or base URL; empty picks the next healthy backend
// after the current owner.
type MigrateRequest struct {
	Target string `json:"target,omitempty"`
}

// MigrateResponse reports a completed migration: the session's new home and
// the digest/cycle the import gate verified there.
type MigrateResponse struct {
	ID     string `json:"id"`
	From   string `json:"from"`
	To     string `json:"to"`
	Cycle  uint64 `json:"cycle"`
	Digest string `json:"digest"`
}

// TraceEvent is one line of the NDJSON trace stream: the cycle just
// executed, the rules that fired, and the registers that changed.
type TraceEvent struct {
	Cycle   uint64              `json:"cycle"`
	Fired   []string            `json:"fired,omitempty"`
	Changed map[string]RegValue `json:"changed,omitempty"`
}

// Metrics is the /metrics document.
type Metrics struct {
	Sessions     int     `json:"sessions"`
	TotalCycles  uint64  `json:"total_cycles"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	QueueDepth   int     `json:"queue_depth"`
	Checkpoints  uint64  `json:"checkpoints"`
	Restores     uint64  `json:"restores"`
	Evictions    uint64  `json:"evictions"`
	// Wedged counts sessions whose step outlived the watchdog; Quarantined
	// counts engine panics isolated to their session; Shed counts requests
	// refused with 503 because the worker queue was full;
	// CorruptCheckpoints counts .ksnp/meta files quarantined on load.
	Wedged             uint64 `json:"wedged,omitempty"`
	Quarantined        uint64 `json:"quarantined,omitempty"`
	Shed               uint64 `json:"shed,omitempty"`
	CorruptCheckpoints uint64 `json:"corrupt_checkpoints,omitempty"`
	// Promotions counts sessions transparently moved onto the native tier;
	// Demotions counts promoted sessions rolled back after their
	// subprocess died.
	Promotions uint64 `json:"promotions,omitempty"`
	Demotions  uint64 `json:"demotions,omitempty"`
	// Forks counts sessions created by /fork; LazyForks is the current
	// number of copy-on-write forks that have not materialized their own
	// engine yet (each costs only its dirty-register overlay).
	Forks     uint64 `json:"forks,omitempty"`
	LazyForks int    `json:"lazy_forks,omitempty"`
	// Exports/Imports count completed session handoffs (live migration).
	Exports uint64 `json:"exports,omitempty"`
	Imports uint64 `json:"imports,omitempty"`
	// HeapBytes is the daemon's live heap (runtime.MemStats.HeapAlloc), so
	// a fleet load generator can measure per-session and per-fork memory
	// amplification remotely.
	HeapBytes uint64  `json:"heap_bytes,omitempty"`
	UptimeSec float64 `json:"uptime_sec"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

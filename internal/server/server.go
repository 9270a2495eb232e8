// Package server implements ksimd, the simulation-as-a-service daemon: it
// hosts many concurrent simulation sessions behind a JSON HTTP API, each
// session wrapping one engine from the cuttlesim/rtlsim/interp matrix over
// a design posted as .koika source or picked from the kbench catalogue.
// Sessions are driven by batched step RPCs with register peek/poke, rule
// profiles, conditional breakpoints, reverse execution, and streamed
// VCD/NDJSON traces; self-driving sessions can be checkpointed to a durable
// store, evicted under session-table pressure, restored after a daemon
// restart, and forked for what-if exploration.
//
// Built only on the standard library (net/http, encoding/json): the thesis
// of the paper is that compiled hardware models are ordinary software, and
// ordinary software gets deployed as services.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cuttlego/internal/bench"
	"cuttlego/internal/diag"
	"cuttlego/internal/faultinj"
	"cuttlego/internal/native"
	"cuttlego/internal/sim"
	"cuttlego/internal/vcd"
)

// Config sizes the daemon's limits. The zero value is usable: every field
// has a default.
type Config struct {
	// StoreDir is the durable snapshot directory; "" disables durability
	// (checkpoints then live only in session memory).
	StoreDir string
	// MaxSessions bounds the live session table (default 64). Creating a
	// session past the bound evicts the least-recently-used durable
	// session to the store, or fails with 429 when nothing is evictable.
	MaxSessions int
	// MaxBody bounds request bodies in bytes (default 1 MiB); oversized
	// requests get 413.
	MaxBody int64
	// StepTimeout bounds the simulation time of one step/trace/reverse
	// request (default 30s). An expired budget is reported as a partial
	// result, not an error.
	StepTimeout time.Duration
	// MaxStepCycles caps the cycles one step request may ask for
	// (default 100M).
	MaxStepCycles uint64
	// Workers bounds concurrently executing simulation requests (default
	// 2*NumCPU); excess requests queue (visible as queue_depth).
	Workers int
	// MaxQueue bounds requests waiting for a worker slot (default
	// 4*Workers). Requests beyond it are shed immediately with 503 and a
	// Retry-After header rather than queued without bound: a saturated
	// daemon that answers "come back later" fast beats one that strings
	// every client along until their deadlines expire.
	MaxQueue int
	// Watchdog bounds the wall-clock time of one step request (default
	// StepTimeout + 30s). A healthy engine honors the step context, so only
	// an engine stuck inside a single cycle can outlive StepTimeout by
	// much; when the watchdog fires, the session is marked wedged (sticky;
	// info/list still answer, everything else is 409) and the daemon moves
	// on instead of letting the runaway step pin its handler forever.
	Watchdog time.Duration
	// Faults, when non-nil, threads deterministic fault injection through
	// the store's filesystem calls and every session engine. Chaos testing
	// only; nil in production.
	Faults *faultinj.Injector
	// NativeCacheDir roots the AOT compile cache and enables the native
	// execution tier: sessions may be created with engine "native", and hot
	// cuttlesim sessions are transparently promoted (see PromoteAfter).
	// "" disables the tier.
	NativeCacheDir string
	// PromoteAfter is the cycle count past which a durable cuttlesim
	// session is transparently promoted to the native tier: the compile
	// runs off the stepping path, state transfers via snapshot with a
	// digest-equality gate, and a crashed subprocess demotes back to the
	// in-process engine. 0 disables promotion (explicit native sessions
	// still work). Requires NativeCacheDir.
	PromoteAfter uint64
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	if c.StepTimeout <= 0 {
		c.StepTimeout = 30 * time.Second
	}
	if c.MaxStepCycles == 0 {
		c.MaxStepCycles = 100_000_000
	}
	if c.Workers <= 0 {
		c.Workers = 16
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.Workers
	}
	if c.Watchdog <= 0 {
		c.Watchdog = c.StepTimeout + 30*time.Second
	}
	return c
}

// Server is the daemon state: the live session table, the durable store,
// the worker pool, and counters.
type Server struct {
	cfg   Config
	store *Store // nil when running without durability
	mux   *http.ServeMux

	mu       sync.Mutex
	sessions map[string]*session
	nextID   uint64

	sem        chan struct{} // worker pool slots
	queueDepth atomic.Int64

	// idem replays responses for requests carrying an Idempotency-Key, so a
	// client retry after a lost response never re-executes a step or create.
	idemMu    sync.Mutex
	idem      map[string]*idemEntry
	idemOrder []string

	ncache *native.Cache // nil when the native tier is disabled
	tier   tierStats

	started     time.Time
	totalCycles atomic.Uint64
	checkpoints atomic.Uint64
	restores    atomic.Uint64
	evictions   atomic.Uint64
	wedged      atomic.Uint64
	quarantines atomic.Uint64
	shed        atomic.Uint64
	corrupt     atomic.Uint64
	forks       atomic.Uint64
	exports     atomic.Uint64
	imports     atomic.Uint64
	rate        rateWindow
}

// New builds a daemon. A non-empty cfg.StoreDir is created if needed.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		sessions: make(map[string]*session),
		sem:      make(chan struct{}, cfg.Workers),
		idem:     make(map[string]*idemEntry),
		started:  time.Now(),
	}
	if cfg.StoreDir != "" {
		fsys := faultinj.OS()
		if cfg.Faults != nil {
			fsys = faultinj.NewFS(fsys, cfg.Faults)
		}
		st, err := OpenStoreFS(cfg.StoreDir, fsys)
		if err != nil {
			return nil, err
		}
		s.store = st
		// Seed the id counter past every stored session: a restarted daemon
		// must never mint an id that collides with durable state, or a new
		// session's checkpoints would overwrite (and DELETE would destroy)
		// an old session's.
		ids, err := st.Sessions()
		if err != nil {
			return nil, fmt.Errorf("server: scan store: %w", err)
		}
		for _, id := range ids {
			if n, ok := sessionSeq(id); ok && n > s.nextID {
				s.nextID = n
			}
		}
	}
	if cfg.PromoteAfter > 0 && cfg.NativeCacheDir == "" {
		return nil, fmt.Errorf("server: PromoteAfter needs NativeCacheDir (nowhere to compile to)")
	}
	if cfg.NativeCacheDir != "" {
		var fsys faultinj.FS
		if cfg.Faults != nil {
			fsys = faultinj.NewFS(faultinj.OS(), cfg.Faults)
		}
		ncache, err := native.OpenCache(cfg.NativeCacheDir, native.CacheOptions{FS: fsys})
		if err != nil {
			return nil, fmt.Errorf("server: open native cache: %w", err)
		}
		s.ncache = ncache
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// env bundles the server-owned machinery newSession needs.
func (s *Server) env() sessionEnv {
	return sessionEnv{inj: s.cfg.Faults, ncache: s.ncache, promoteAfter: s.cfg.PromoteAfter, stats: &s.tier}
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close gracefully retires the daemon: every durable session is
// checkpointed to the store (when one is configured) so a restarted daemon
// can resurrect it, then the session table is dropped. Failed sessions are
// skipped — a quarantined engine is already closed, and a wedged session's
// mutex may be held forever by its runaway step, so waiting on it would
// turn shutdown into a hang.
func (s *Server) Close() error {
	s.mu.Lock()
	live := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		live = append(live, sess)
	}
	s.sessions = make(map[string]*session)
	s.mu.Unlock()
	var firstErr error
	for _, sess := range live {
		if sess.failed.Load() != nil {
			continue
		}
		if s.store != nil && sess.durable() {
			if _, err := s.checkpoint(sess); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("checkpoint %s: %w", sess.id, err)
			}
		}
		sess.mu.Lock()
		sess.closeEngine()
		sess.mu.Unlock()
	}
	if s.ncache != nil {
		// Backstop against orphaned simulator subprocesses: closeEngine
		// already reaped each session's child, but a child whose session
		// was quarantined mid-crash (or leaked by a bug) must not outlive
		// the daemon.
		native.KillAll(5 * time.Second)
	}
	return firstErr
}

// RecoverStore runs the store's startup recovery scan (see Store.Recover);
// a storeless daemon reports a clean scan.
func (s *Server) RecoverStore() (RecoverReport, error) {
	if s.store == nil {
		return RecoverReport{}, nil
	}
	rep, err := s.store.Recover()
	s.corrupt.Add(uint64(len(rep.CorruptSnapshots) + len(rep.CorruptMetas)))
	return rep, err
}

// checkpoint captures a session and, when a store is configured, persists
// meta + snapshot. It returns the checkpoint description.
func (s *Server) checkpoint(sess *session) (CheckpointResponse, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return s.checkpointLocked(sess)
}

// checkpointLocked is checkpoint's body; callers hold sess.mu, so the
// persisted state cannot advance between the capture and the store write.
// The Guard matters on the native tier: a snapshot RPC against a crashed
// subprocess panics, and eviction/shutdown must degrade to an error, not
// take the daemon down.
func (s *Server) checkpointLocked(sess *session) (_ CheckpointResponse, err error) {
	defer diag.Guard("server: checkpoint", &err)
	snap, err := sess.snapshotLocked()
	if err != nil {
		return CheckpointResponse{}, err
	}
	ckpt := "c" + strconv.FormatUint(snap.Cycle, 10)
	resp := CheckpointResponse{
		Checkpoint: ckpt,
		Cycle:      snap.Cycle,
		Digest:     fmt.Sprintf("%016x", snap.Digest()),
	}
	if s.store == nil {
		return resp, nil
	}
	// Store failures below are the daemon's fault (a full or lying disk),
	// never the client's: report 500 so retry policies treat them as what
	// they are instead of the default 400.
	data, err := snap.MarshalBinary()
	if err != nil {
		return CheckpointResponse{}, httpError{http.StatusInternalServerError, err}
	}
	if sess.rec != nil {
		// The trace must be durable with the checkpoint: a resurrection that
		// resumes recording continues from what the flush landed.
		if err := sess.rec.Flush(); err != nil {
			return CheckpointResponse{}, httpError{http.StatusInternalServerError, fmt.Errorf("checkpoint: flush trace: %w", err)}
		}
	}
	if err := s.store.SaveMeta(SessionMeta{
		ID: sess.id, Source: sess.src, Catalog: sess.catalog, Config: configOf(sess.spec), Created: time.Now(),
		Trace: sess.rec != nil,
	}); err != nil {
		return CheckpointResponse{}, httpError{http.StatusInternalServerError, fmt.Errorf("checkpoint: %w", err)}
	}
	if err := s.store.SaveSnapshot(sess.id, ckpt, data); err != nil {
		return CheckpointResponse{}, httpError{http.StatusInternalServerError, fmt.Errorf("checkpoint: %w", err)}
	}
	s.checkpoints.Add(1)
	return resp, nil
}

// sessionSeq parses a daemon-minted "s<N>" session id; foreign ids report
// false.
func sessionSeq(id string) (uint64, bool) {
	rest, ok := strings.CutPrefix(id, "s")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// --- session table ----------------------------------------------------------

var errTableFull = errors.New("session table full and nothing evictable")

// admit inserts a new session, evicting if the table is at its bound. If a
// session with the same id is already live — a lost resurrection race — the
// existing session wins and is returned untouched; the check and the insert
// happen under one hold of mu, so two racing resurrections can never both
// land. Callers must not hold mu or sess.mu.
func (s *Server) admit(sess *session) (*session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if cur, ok := s.sessions[sess.id]; ok {
			return cur, nil
		}
		if len(s.sessions) < s.cfg.MaxSessions {
			break
		}
		victim := s.lruDurableLocked()
		if victim == nil || s.store == nil {
			return nil, errTableFull
		}
		// The victim stays in the table — visible to lookups, exclusively
		// claimed via the evicting flag — until its checkpoint is durably
		// written. Removing it first would let a concurrent lookup in the
		// checkpoint window resurrect a stale checkpoint, silently rolling
		// the session back; and a failed checkpoint would drop live state.
		// Its own mu is held across the write so the persisted snapshot is
		// the state clients last observed.
		victim.evicting = true
		s.mu.Unlock()
		victim.mu.Lock()
		s.mu.Lock()
		if _, still := s.sessions[victim.id]; !still {
			// Deleted while we waited for its lock; the slot is already free.
			victim.evicting = false
			victim.mu.Unlock()
			continue
		}
		s.mu.Unlock()
		_, err := s.checkpointLocked(victim)
		s.mu.Lock()
		victim.evicting = false
		if err != nil {
			victim.mu.Unlock()
			return nil, fmt.Errorf("evicting %s: %w", victim.id, err)
		}
		delete(s.sessions, victim.id)
		victim.closeEngine()
		victim.mu.Unlock()
		s.evictions.Add(1)
	}
	sess.lastUsed = time.Now()
	s.sessions[sess.id] = sess
	return sess, nil
}

// lruDurableLocked picks the least-recently-used evictable session,
// skipping sessions another admit is already evicting and failed sessions
// (their engines cannot be checkpointed, and a wedged session's mu may
// never come free).
func (s *Server) lruDurableLocked() *session {
	var victim *session
	for _, sess := range s.sessions {
		if !sess.durable() || sess.evicting || sess.failed.Load() != nil {
			continue
		}
		if victim == nil || sess.lastUsed.Before(victim.lastUsed) {
			victim = sess
		}
	}
	return victim
}

// lookup finds a live session and bumps its LRU stamp. A session that is
// not live but has durable state is resurrected transparently — that is
// what eviction promises the client.
func (s *Server) lookup(id string) (*session, error) {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		sess.lastUsed = time.Now()
	}
	s.mu.Unlock()
	if ok {
		return sess, nil
	}
	if s.store == nil {
		return nil, errUnknownSession(id)
	}
	// Resurrect errors carry their own status: missing durable state is 404,
	// a full table is 429, a corrupt checkpoint is 500. Collapsing them all
	// to 404 would make corruption indistinguishable from a missing session.
	return s.resurrect(id, "")
}

type unknownSession string

func errUnknownSession(id string) error { return unknownSession(id) }
func (u unknownSession) Error() string  { return fmt.Sprintf("unknown session %q", string(u)) }

// resurrect rebuilds a stored session at one of its checkpoints (latest if
// ckpt is ""). The live session keeps its stored id. Damaged durable state
// is quarantined as it is discovered and reported honestly: a corrupt
// checkpoint is 500 on first contact (retrying falls back to an older one),
// a session whose recipe or last checkpoint is gone for good is 410, and
// only a session the store has never heard of is 404.
func (s *Server) resurrect(id, ckpt string) (_ *session, err error) {
	defer diag.Guard("server: resurrect", &err)
	if s.store == nil {
		return nil, fmt.Errorf("daemon runs without a store; nothing to restore from")
	}
	meta, err := s.store.LoadMeta(id)
	if err != nil {
		if errors.Is(err, errMetaCorrupt) {
			if s.store.QuarantineMeta(id) == nil {
				s.corrupt.Add(1)
			}
			return nil, httpError{http.StatusGone,
				fmt.Errorf("session %q: stored meta.json corrupt (quarantined); the rebuild recipe is lost", id)}
		}
		if s.store.HasSession(id) {
			return nil, httpError{http.StatusGone,
				fmt.Errorf("session %q: durable files exist but its meta.json is gone; unrecoverable", id)}
		}
		return nil, fmt.Errorf("%w: no durable state", errUnknownSession(id))
	}
	if ckpt == "" {
		cks, err := s.store.Checkpoints(id)
		if err != nil || len(cks) == 0 {
			return nil, httpError{http.StatusGone,
				fmt.Errorf("session %q has no restorable checkpoints (quarantined or never written)", id)}
		}
		ckpt = cks[len(cks)-1]
	}
	data, err := s.store.LoadSnapshot(id, ckpt)
	if err != nil {
		return nil, httpError{http.StatusNotFound,
			fmt.Errorf("session %q has no checkpoint %q", id, ckpt)}
	}
	var snap sim.Snapshot
	if err := snap.UnmarshalBinary(data); err != nil {
		if s.store.QuarantineSnapshot(id, ckpt) == nil {
			s.corrupt.Add(1)
		}
		return nil, httpError{http.StatusInternalServerError,
			fmt.Errorf("checkpoint %s/%s corrupt (quarantined): %v", id, ckpt, err)}
	}
	sess, err := newSession(meta.ID, CreateRequest{
		Source: meta.Source, Catalog: meta.Catalog,
		Engine: meta.Config.Engine, Level: meta.Config.Level,
		Backend: meta.Config.Backend, Optimize: meta.Config.Optimize,
		Workers: meta.Config.Workers,
	}, s.env())
	if err != nil {
		return nil, fmt.Errorf("rebuilding session %q: %w", id, err)
	}
	if err := sess.restoreSnapshot(snap); err != nil {
		sess.discard()
		return nil, fmt.Errorf("restoring session %q: %w", id, err)
	}
	sess.restored = true
	if meta.Trace {
		// The session was recording when its meta was written: resume the
		// recording at the restored cycle. Best-effort — a damaged recording
		// restarts fresh inside record, and a failing disk must not block the
		// resurrection itself.
		if dir, fsys, err := s.traceHome(meta.ID); err == nil {
			_ = sess.record(true, dir, fsys)
		}
	}
	// Another request may have resurrected the same id concurrently; admit
	// atomically yields to an already-live session, so the first one in
	// wins and the loser's rebuild is discarded.
	admitted, err := s.admit(sess)
	if err != nil {
		sess.discard()
		return nil, err
	}
	if admitted != sess {
		sess.discard()
		return admitted, nil
	}
	s.restores.Add(1)
	return sess, nil
}

// --- worker pool ------------------------------------------------------------

var errOverloaded = errors.New("worker pool saturated")

// acquire takes a pool slot, queueing when the pool is saturated and
// shedding when the queue itself is full: a bounded queue converts overload
// into an immediate 503 with Retry-After instead of unbounded latency that
// strings every client along until its deadline expires.
func (s *Server) acquire(ctx context.Context) error {
	if int(s.queueDepth.Load()) >= s.cfg.MaxQueue {
		s.shed.Add(1)
		return errOverloaded
	}
	s.queueDepth.Add(1)
	defer s.queueDepth.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() { <-s.sem }

// --- failure isolation ------------------------------------------------------

// wedge marks a session wedged (sticky). Called when its step outlived the
// watchdog: the runaway goroutine may hold sess.mu forever, so nothing here
// touches the session beyond its atomics.
func (s *Server) wedge(sess *session, reason string) {
	if sess.failed.CompareAndSwap(nil, &sessionFailure{state: stateWedged, reason: reason}) {
		s.wedged.Add(1)
	}
}

// noteFailure inspects an error from a session operation: an engine panic
// (diag.Internal, recovered at the handler's Guard boundary) poisons the
// session, so it is quarantined instead of served again.
func (s *Server) noteFailure(sess *session, err error) {
	var internal *diag.Internal
	if errors.As(err, &internal) {
		s.quarantine(sess, internal)
	}
}

// quarantine takes a panicked session out of service: the failure becomes
// sticky (info/list answer from cached state, everything else is 409), a
// panic report and a diagnostic snapshot are persisted for forensics, and
// the engine is closed. Forensics are best-effort and individually
// recover-guarded — the engine just panicked, so anything it touches may
// panic again, and the store may be failing too.
func (s *Server) quarantine(sess *session, internal *diag.Internal) {
	reason := "engine panic: " + internal.Error()
	if !sess.failed.CompareAndSwap(nil, &sessionFailure{state: stateQuarantined, reason: reason}) {
		return
	}
	s.quarantines.Add(1)
	if s.store != nil && validID(sess.id) {
		func() {
			defer func() { _ = recover() }()
			_ = s.store.SaveDiagnostic(sess.id, "panic.txt", []byte(reason+"\n\n"+internal.Stack))
		}()
	}
	// The panicking operation's Guard already returned, so sess.mu is free;
	// no new operation can be in flight past the failed gate.
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if s.store != nil && validID(sess.id) && sess.durable() {
		func() {
			defer func() { _ = recover() }()
			snapper, ok := sess.eng.(sim.Snapshotter)
			if !ok {
				return
			}
			snap := snapper.Snapshot()
			if data, err := snap.MarshalBinary(); err == nil {
				// .diag, not .ksnp: a post-panic snapshot must never be
				// mistaken for a restorable checkpoint.
				_ = s.store.SaveDiagnostic(sess.id, fmt.Sprintf("c%d.diag", snap.Cycle), data)
			}
		}()
	}
	func() {
		defer func() { _ = recover() }()
		sess.closeEngine()
	}()
}

// stepResult carries a step's outcome across the watchdog boundary.
type stepResult struct {
	ran     uint64
	stopped string
	err     error
}

// runStep executes one step request under the watchdog. The work runs in a
// goroutine that owns the pool slot, the step context, and the cycle
// accounting, so when the watchdog fires the handler abandons the step
// without leaking the slot if the runaway ever finishes; if it never does,
// the slot is lost with the session — which is why the session is marked
// wedged and the bounded queue caps how much a few lost slots can back up.
func (s *Server) runStep(r *http.Request, sess *session, cycles uint64) (StepResponse, error) {
	if err := sess.gate(); err != nil {
		return StepResponse{}, err
	}
	if err := s.acquire(r.Context()); err != nil {
		return StepResponse{}, fmt.Errorf("queue wait: %w", err)
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.StepTimeout)
	done := make(chan stepResult, 1) // buffered: a post-watchdog result must not leak the goroutine
	go func() {
		defer s.release()
		defer cancel()
		ran, stopped, err := sess.step(ctx, cycles)
		s.addCycles(ran)
		done <- stepResult{ran, stopped, err}
	}()
	watchdog := time.NewTimer(s.cfg.Watchdog)
	defer watchdog.Stop()
	select {
	case res := <-done:
		if res.err != nil {
			s.noteFailure(sess, res.err)
			return StepResponse{}, res.err
		}
		sess.mu.Lock()
		resp := StepResponse{Ran: res.ran, Cycle: sess.eng.CycleCount(), Stopped: res.stopped, Fired: sess.fired()}
		sess.mu.Unlock()
		return resp, nil
	case <-watchdog.C:
		reason := fmt.Sprintf("a step of %d cycles outlived the %s watchdog", cycles, s.cfg.Watchdog)
		s.wedge(sess, reason)
		return StepResponse{}, httpError{http.StatusInternalServerError,
			fmt.Errorf("session %s wedged: %s", sess.id, reason)}
	}
}

// --- cycle accounting -------------------------------------------------------

// rateWindow tracks recent cycle throughput in one-second buckets, so
// /metrics can report cycles/sec over the last few seconds rather than a
// lifetime average.
type rateWindow struct {
	mu      sync.Mutex
	seconds [16]int64 // unix second each bucket belongs to
	cycles  [16]uint64
}

func (r *rateWindow) add(now time.Time, n uint64) {
	sec := now.Unix()
	i := int(sec % int64(len(r.seconds)))
	r.mu.Lock()
	if r.seconds[i] != sec {
		r.seconds[i], r.cycles[i] = sec, 0
	}
	r.cycles[i] += n
	r.mu.Unlock()
}

// perSec averages over the window's last 10 complete seconds.
func (r *rateWindow) perSec(now time.Time) float64 {
	sec := now.Unix()
	var sum uint64
	r.mu.Lock()
	for i := range r.seconds {
		if age := sec - r.seconds[i]; age >= 1 && age <= 10 {
			sum += r.cycles[i]
		}
	}
	r.mu.Unlock()
	return float64(sum) / 10
}

func (s *Server) addCycles(n uint64) {
	s.totalCycles.Add(n)
	s.rate.add(time.Now(), n)
}

// --- HTTP plumbing ----------------------------------------------------------

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/sessions", s.withIdem(s.handleCreate))
	s.mux.HandleFunc("GET /v1/sessions", s.handleList)
	s.mux.HandleFunc("POST /v1/resurrect", s.handleResurrect)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleInfo)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/sessions/{id}/step", s.withIdem(s.handleStep))
	s.mux.HandleFunc("POST /v1/sessions/{id}/regs", s.handleRegs)
	s.mux.HandleFunc("GET /v1/sessions/{id}/profile", s.handleProfile)
	s.mux.HandleFunc("POST /v1/sessions/{id}/break", s.handleBreak)
	s.mux.HandleFunc("POST /v1/sessions/{id}/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("POST /v1/sessions/{id}/restore", s.handleRestore)
	s.mux.HandleFunc("POST /v1/sessions/{id}/fork", s.handleFork)
	s.mux.HandleFunc("POST /v1/sessions/{id}/reverse", s.handleReverse)
	s.mux.HandleFunc("GET /v1/sessions/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("POST /v1/sessions/{id}/trace/record", s.handleTraceRecord)
	s.mux.HandleFunc("GET /v1/sessions/{id}/trace/status", s.handleTraceStatus)
	s.mux.HandleFunc("POST /v1/sessions/{id}/trace/query", s.handleTraceQuery)
	s.mux.HandleFunc("POST /v1/sessions/{id}/trace/diff", s.handleTraceDiff)
	s.mux.HandleFunc("GET /v1/sessions/{id}/trace/vcd", s.handleTraceVCD)
	s.mux.HandleFunc("POST /v1/sessions/{id}/export", s.handleExport)
	s.mux.HandleFunc("POST /v1/sessions/{id}/release", s.handleRelease)
	s.mux.HandleFunc("POST /v1/import", s.handleImport)
}

// decode reads a bounded JSON request body. Exceeding the body budget is
// 413; everything else wrong with the body is 400.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return httpError{http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", s.cfg.MaxBody)}
		}
		return httpError{http.StatusBadRequest, fmt.Errorf("request body: %w", err)}
	}
	return nil
}

// httpError pins a specific status to an error.
type httpError struct {
	status int
	err    error
}

func (e httpError) Error() string { return e.err.Error() }
func (e httpError) Unwrap() error { return e.err }

// errorStatus maps an error to the API's status contract: explicit statuses
// pass through; unknown sessions are 404; non-durable operations and failed
// (wedged/quarantined) sessions are 409; overload is 429/503 with a
// Retry-After hint; toolchain bugs (diag.Internal) are 500; everything else
// the client can fix is 400.
func errorStatus(err error) (status, retryAfter int) {
	var he httpError
	var unknown unknownSession
	var failed *sessionFailedError
	var internal *diag.Internal
	switch {
	case errors.As(err, &he):
		return he.status, 0
	case errors.As(err, &unknown):
		return http.StatusNotFound, 0
	case errors.As(err, &failed):
		return http.StatusConflict, 0
	case errors.Is(err, errNotDurable):
		return http.StatusConflict, 0
	case errors.Is(err, errTableFull):
		return http.StatusTooManyRequests, 2
	case errors.Is(err, errOverloaded):
		return http.StatusServiceUnavailable, 1
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, 1
	case errors.As(err, &internal):
		return http.StatusInternalServerError, 0
	}
	return http.StatusBadRequest, 0
}

func writeError(w http.ResponseWriter, err error) {
	status, retryAfter := errorStatus(err)
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// --- handlers ---------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	nsess := len(s.sessions)
	lazy := 0
	for _, sess := range s.sessions {
		if sess.cow.Load() {
			lazy++
		}
	}
	s.mu.Unlock()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	now := time.Now()
	writeJSON(w, http.StatusOK, Metrics{
		Sessions:     nsess,
		TotalCycles:  s.totalCycles.Load(),
		CyclesPerSec: s.rate.perSec(now),
		QueueDepth:   int(s.queueDepth.Load()),
		Checkpoints:  s.checkpoints.Load(),
		Restores:     s.restores.Load(),
		Evictions:    s.evictions.Load(),

		Wedged:             s.wedged.Load(),
		Quarantined:        s.quarantines.Load(),
		Shed:               s.shed.Load(),
		CorruptCheckpoints: s.corrupt.Load(),

		Promotions: s.tier.promotions.Load(),
		Demotions:  s.tier.demotions.Load(),

		Forks:     s.forks.Load(),
		LazyForks: lazy,
		Exports:   s.exports.Load(),
		Imports:   s.imports.Load(),
		HeapBytes: mem.HeapAlloc,

		UptimeSec: now.Sub(s.started).Seconds(),
	})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if err := s.decode(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	id := req.ID
	if id == "" {
		s.mu.Lock()
		s.nextID++
		id = "s" + strconv.FormatUint(s.nextID, 10)
		s.mu.Unlock()
	} else {
		// A client-claimed id (routing gateways mint fleet-unique ids so the
		// id hashes to a backend before the create lands). It must not
		// shadow durable state — resurrecting the old session would replay
		// the new one's recipe — and must keep the daemon's own id minting
		// clear of it.
		if !validID(id) {
			writeError(w, fmt.Errorf("session id %q is not path-safe ([a-zA-Z0-9_-], max 64)", id))
			return
		}
		if s.store != nil && s.store.HasSession(id) {
			writeError(w, httpError{http.StatusConflict,
				fmt.Errorf("session id %q already has durable state; delete it first", id)})
			return
		}
		s.mu.Lock()
		if n, ok := sessionSeq(id); ok && n > s.nextID {
			s.nextID = n
		}
		s.mu.Unlock()
	}
	sess, err := newSession(id, req, s.env())
	if err != nil {
		writeError(w, err)
		return
	}
	admitted, err := s.admit(sess)
	if err != nil {
		sess.discard()
		writeError(w, err)
		return
	}
	if admitted != sess {
		// Only reachable for claimed ids: daemon-minted ids are unique.
		sess.discard()
		writeError(w, httpError{http.StatusConflict,
			fmt.Errorf("session %q is already live", id)})
		return
	}
	writeJSON(w, http.StatusCreated, sess.info())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	live := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		live = append(live, sess)
	}
	s.mu.Unlock()
	resp := ListResponse{Sessions: make([]SessionInfo, 0, len(live))}
	for _, sess := range live {
		resp.Sessions = append(resp.Sessions, sess.info())
	}
	sortSessions(resp.Sessions)
	writeJSON(w, http.StatusOK, resp)
}

func sortSessions(infos []SessionInfo) {
	for i := 1; i < len(infos); i++ { // insertion sort: tiny n, no extra imports
		for j := i; j > 0 && infos[j-1].ID > infos[j].ID; j-- {
			infos[j-1], infos[j] = infos[j], infos[j-1]
		}
	}
}

func (s *Server) handleResurrect(w http.ResponseWriter, r *http.Request) {
	var req ResurrectRequest
	if err := s.decode(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	s.mu.Lock()
	cur, live := s.sessions[req.Session]
	if live && cur.failed.Load() != nil {
		// A failed tombstone yields to resurrection: the client is asking for
		// the rebuild-from-last-durable-checkpoint the 409 message promised.
		// A quarantined engine is already closed, and a wedged one cannot be
		// touched (its mu may be held forever), so dropping the table entry
		// is all the cleanup there is.
		delete(s.sessions, req.Session)
		live = false
	}
	s.mu.Unlock()
	if live {
		writeError(w, httpError{http.StatusConflict,
			fmt.Errorf("session %q is already live; use its restore endpoint to rewind it", req.Session)})
		return
	}
	sess, err := s.resurrect(req.Session, req.Checkpoint)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sess.info())
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	sess, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sess.info())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess, ok := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if ok && sess.failed.Load() == nil {
		// Failed sessions are skipped: a quarantined engine is already
		// closed, and a wedged session's mu may be held forever by its
		// runaway step — blocking DELETE on it would wedge the caller too.
		sess.mu.Lock()
		sess.closeEngine()
		sess.mu.Unlock()
	}
	if !ok {
		// HasSession, not LoadMeta: a session whose meta.json is corrupt or
		// quarantined must still be deletable, or damaged state could never
		// be cleared.
		stored := s.store != nil && validID(id) && s.store.HasSession(id)
		if !stored {
			writeError(w, errUnknownSession(id))
			return
		}
	}
	if s.store != nil && validID(id) {
		_ = s.store.Remove(id)
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	sess, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	var req StepRequest
	if err := s.decode(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Cycles == 0 || req.Cycles > s.cfg.MaxStepCycles {
		writeError(w, fmt.Errorf("cycles must be in [1, %d], got %d", s.cfg.MaxStepCycles, req.Cycles))
		return
	}
	resp, err := s.runStep(r, sess, req.Cycles)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRegs(w http.ResponseWriter, r *http.Request) {
	sess, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	var req RegsRequest
	if err := s.decode(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	resp, err := sess.regs(req)
	if err != nil {
		s.noteFailure(sess, err)
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	sess, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	resp, err := sess.profile()
	if err != nil {
		writeError(w, httpError{http.StatusConflict, err})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBreak(w http.ResponseWriter, r *http.Request) {
	sess, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	var req BreakRequest
	if err := s.decode(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := sess.setBreak(req); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	sess, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	resp, err := s.checkpoint(sess)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	sess, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	var req RestoreRequest
	if err := s.decode(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Checkpoint == "" {
		writeError(w, fmt.Errorf("checkpoint id required"))
		return
	}
	snap, err := s.loadCheckpoint(sess, req.Checkpoint)
	if err != nil {
		writeError(w, err)
		return
	}
	if err := sess.restoreSnapshot(snap); err != nil {
		s.noteFailure(sess, err)
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sess.info())
}

// loadCheckpoint finds a checkpoint in the durable store, falling back to
// the session's in-memory snapshot ring ("c<cycle>" ids).
func (s *Server) loadCheckpoint(sess *session, ckpt string) (sim.Snapshot, error) {
	if s.store != nil {
		if data, err := s.store.LoadSnapshot(sess.id, ckpt); err == nil {
			var snap sim.Snapshot
			if err := snap.UnmarshalBinary(data); err != nil {
				return sim.Snapshot{}, fmt.Errorf("checkpoint %s corrupt: %w", ckpt, err)
			}
			return snap, nil
		}
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	for _, snap := range sess.snaps {
		if "c"+strconv.FormatUint(snap.Cycle, 10) == ckpt {
			return snap, nil
		}
	}
	return sim.Snapshot{}, fmt.Errorf("session %q has no checkpoint %q", sess.id, ckpt)
}

// handleFork creates a copy-on-write fork: the new session shares the
// parent's state as an immutable base snapshot plus its own dirty-register
// overlay, and builds no engine until its first mutation-heavy operation
// (step, trace, reverse, profile). A fork storm of N what-if sessions over
// one base therefore costs one retained register file plus N overlays, not
// N engines and N register files.
func (s *Server) handleFork(w http.ResponseWriter, r *http.Request) {
	sess, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	// Gate before taking sess.mu: a wedged session's mu may be held forever.
	if err := sess.gate(); err != nil {
		writeError(w, err)
		return
	}
	sess.mu.Lock()
	ov, err := sess.forkOverlayLocked()
	sess.mu.Unlock()
	if err != nil {
		writeError(w, err)
		return
	}
	s.mu.Lock()
	s.nextID++
	id := "s" + strconv.FormatUint(s.nextID, 10)
	s.mu.Unlock()
	fork := newLazyFork(id, sess, ov)
	if _, err := s.admit(fork); err != nil {
		fork.discard()
		writeError(w, err)
		return
	}
	if s.store != nil && fork.durable() {
		// The fork is durable from birth: flatten the overlay into a stored
		// checkpoint before answering, so a backend that dies before the
		// fork's first step can still resurrect it. A fork the daemon cannot
		// persist is not admitted at all — half-durable sessions would break
		// the resurrection promise.
		if _, err := s.checkpoint(fork); err != nil {
			s.mu.Lock()
			delete(s.sessions, fork.id)
			s.mu.Unlock()
			fork.discard()
			_ = s.store.Remove(fork.id)
			writeError(w, fmt.Errorf("persisting fork %s: %w", fork.id, err))
			return
		}
	}
	s.forks.Add(1)
	writeJSON(w, http.StatusCreated, fork.info())
}

func (s *Server) handleReverse(w http.ResponseWriter, r *http.Request) {
	sess, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	var req ReverseRequest
	if err := s.decode(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := s.acquire(r.Context()); err != nil {
		writeError(w, fmt.Errorf("queue wait: %w", err))
		return
	}
	defer s.release()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.StepTimeout)
	defer cancel()
	if err := sess.reverse(ctx, req.Cycles); err != nil {
		s.noteFailure(sess, err)
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sess.info())
}

// handleTrace streams a trace of the next N cycles: format=vcd streams a
// Value Change Dump, format=events (default) streams NDJSON TraceEvent
// lines. The response is chunked; the session advances as the trace runs.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	sess, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	q := r.URL.Query()
	cycles, err := strconv.ParseUint(q.Get("cycles"), 10, 64)
	if err != nil || cycles == 0 || cycles > s.cfg.MaxStepCycles {
		writeError(w, fmt.Errorf("trace wants cycles in [1, %d], got %q", s.cfg.MaxStepCycles, q.Get("cycles")))
		return
	}
	format := q.Get("format")
	if format == "" {
		format = "events"
	}
	if format != "events" && format != "vcd" {
		writeError(w, fmt.Errorf("unknown trace format %q (want events or vcd)", format))
		return
	}
	// Gate before taking sess.mu: a wedged session's mu may be held forever.
	if err := sess.gate(); err != nil {
		writeError(w, err)
		return
	}
	if err := s.acquire(r.Context()); err != nil {
		writeError(w, fmt.Errorf("queue wait: %w", err))
		return
	}
	defer s.release()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.StepTimeout)
	defer cancel()

	sess.mu.Lock()
	defer sess.mu.Unlock()
	// Tracing executes cycles, so a lazy fork diverges here.
	if err := sess.materializeLocked(); err != nil {
		writeError(w, err)
		return
	}
	// The stream holds sess.mu and a worker-pool slot, and the step-timeout
	// ctx only bounds simulation — not writes to a stalled client. A rolling
	// write deadline, extended on every flush while the stream progresses,
	// fails blocked writes instead, so a dead client cannot pin the session
	// and a slot forever. (SetWriteDeadline errors are ignored: recorders
	// and exotic transports without deadlines just keep the old behavior.)
	rc := http.NewResponseController(w)
	flush := func() {
		_ = rc.Flush()
		_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.StepTimeout))
	}
	_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.StepTimeout))
	var ran uint64
	defer func() { s.addCycles(ran) }()
	switch format {
	case "vcd":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		vw := vcd.New(w, sess.eng)
		if err := vw.Sample(); err != nil {
			return
		}
		var sinceFlush int
		n, _, err := sess.stepLocked(ctx, cycles, func() error {
			if err := vw.Sample(); err != nil {
				return err
			}
			if sinceFlush++; sinceFlush >= 1024 {
				sinceFlush = 0
				flush()
			}
			return nil
		})
		ran = n
		_ = err // the status line is out; the stream just ends
		flush()
	default:
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		enc := json.NewEncoder(w)
		d := sess.design()
		last := sess.valuesLocked()
		n, _, _ := sess.stepLocked(ctx, cycles, func() error {
			ev := TraceEvent{Cycle: sess.eng.CycleCount()}
			for _, name := range d.Schedule {
				if sess.eng.RuleFired(name) {
					ev.Fired = append(ev.Fired, name)
				}
			}
			now := sess.valuesLocked()
			for i, v := range now {
				if v != last[i] {
					if ev.Changed == nil {
						ev.Changed = make(map[string]RegValue)
					}
					ev.Changed[d.Registers[i].Name] = FromBits(v)
				}
			}
			last = now
			if err := enc.Encode(ev); err != nil {
				return err
			}
			flush()
			return nil
		})
		ran = n
	}
}

// Describe returns a one-line description of the daemon's limits, for the
// ksimd startup banner.
func (s *Server) Describe() string {
	desc := fmt.Sprintf("max-sessions=%d workers=%d max-body=%dB step-timeout=%s store=%q",
		s.cfg.MaxSessions, s.cfg.Workers, s.cfg.MaxBody, s.cfg.StepTimeout, s.cfg.StoreDir)
	if s.ncache != nil {
		desc += fmt.Sprintf(" native-cache=%q promote-after=%d", s.cfg.NativeCacheDir, s.cfg.PromoteAfter)
	}
	return desc
}

// catalogNames is re-exported for the CLI usage string.
func catalogNames() []string { return bench.Names() }

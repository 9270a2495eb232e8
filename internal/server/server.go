// Package server implements ksimd, the simulation-as-a-service daemon: it
// hosts many concurrent simulation sessions behind a JSON HTTP API, each
// session wrapping one engine from the cuttlesim/rtlsim/interp matrix over
// a design posted as .koika source or picked from the kbench catalogue.
// Sessions are driven by batched step RPCs with register peek/poke, rule
// profiles, conditional breakpoints, reverse execution, and recorded
// traces (indexed queries, diffs, VCD); self-driving sessions can be
// checkpointed to a durable store, evicted under session-table pressure,
// restored after a daemon restart, and forked for what-if exploration.
//
// Built only on the standard library (net/http, encoding/json): the thesis
// of the paper is that compiled hardware models are ordinary software, and
// ordinary software gets deployed as services.
package server

import (
	"context"
	"crypto/rand"
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

	"cuttlego/internal/diag"
	"cuttlego/internal/faultinj"
	"cuttlego/internal/native"
	"cuttlego/internal/sim"
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
	// tag is random per daemon and part of every id the daemon mints (see
	// mintID): daemons sharing a store each count from their own nextID,
	// and two sessions minted under one id would overwrite (and, on a
	// failed checkpoint, delete) each other's durable state.
	tag string

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
	var tag [6]byte
	_, _ = rand.Read(tag[:]) // crypto/rand does not fail on supported platforms
	s.tag = fmt.Sprintf("%x-", tag)
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
		// Seed the id counter past every stored "s<N>" session, so a
		// restarted daemon keeps counting up from stores written before
		// minted ids carried a tag. mintID itself refuses any id with
		// durable state: a new session's checkpoints would overwrite (and
		// DELETE would destroy) an old session's.
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

// Close gracefully retires every session, durable ones with a checkpoint
// so a restarted daemon can resurrect them; one whose checkpoint fails is
// closed anyway, and the first such error is returned. Failed sessions only
// leave the table (see retire), so a wedged step cannot hang shutdown.
func (s *Server) Close() error {
	var firstErr error
	for _, sess := range s.table() {
		if err := s.retire(sess, true, false); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("checkpoint %s: %w", sess.id, err)
			}
			_ = s.retire(sess, false, false)
		}
	}
	if s.ncache != nil {
		// Retiring reaped each session's child; this reaps the rest of the
		// daemon's own children — a wedged session's, or one leaked by a
		// bug — without touching other daemons' in the same process.
		s.ncache.KillAll(5 * time.Second)
	}
	return firstErr
}

// table lists the sessions in the table.
func (s *Server) table() []*session {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess)
	}
	return out
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
	if err := sess.lock(); err != nil {
		return CheckpointResponse{}, err
	}
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

// mintID returns a fresh id, "s<tag>-<n>" for creates and "f<tag>-<n>"
// for forks, that neither a live session nor durable state uses.
func (s *Server) mintID(kind string) string {
	for {
		s.mu.Lock()
		s.nextID++
		id := kind + s.tag + strconv.FormatUint(s.nextID, 10)
		_, live := s.sessions[id]
		s.mu.Unlock()
		if !live && (s.store == nil || !s.store.HasSession(id)) {
			return id
		}
	}
}

// sessionSeq parses an "s<N>" session id, the form daemons minted before
// ids carried a per-daemon tag and a form clients may claim; other ids
// report false.
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
		// claimed by its evicting state — until its checkpoint is durably
		// written. Removing it first would let a concurrent lookup in the
		// checkpoint window resurrect a stale checkpoint, silently rolling
		// the session back; and a failed checkpoint would drop live state.
		// Its own mu is held across the write so the persisted snapshot is
		// the state clients last observed, and a request queued on that mu
		// finds the session closed and follows it to its resurrection.
		if !victim.claimEviction() {
			continue // failed since the scan
		}
		s.mu.Unlock()
		err := s.evict(victim)
		s.mu.Lock()
		if err != nil {
			return nil, fmt.Errorf("evicting %s: %w", victim.id, err)
		}
	}
	sess.lastUsed = time.Now()
	s.sessions[sess.id] = sess
	return sess, nil
}

// evict retires a claimed victim with a checkpoint, or returns it to
// service if the checkpoint fails.
func (s *Server) evict(victim *session) error {
	victim.mu.Lock()
	defer victim.mu.Unlock()
	if victim.state().phase == phaseClosed {
		return nil // retired by someone else meanwhile; the slot is free all the same
	}
	if err := s.retireLocked(victim, true, false); err != nil {
		victim.abortEviction()
		return err
	}
	s.evictions.Add(1)
	return nil
}

// lruDurableLocked picks the least-recently-used evictable session,
// skipping sessions another admit is already evicting and failed sessions
// (their engines cannot be checkpointed, and a wedged session's mu may
// never come free).
func (s *Server) lruDurableLocked() *session {
	var victim *session
	for _, sess := range s.sessions {
		if !sess.durable() || sess.state().phase >= phaseEvicting {
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
	sess, err := s.rebuild(meta.ID, meta.Source, meta.Catalog, meta.Config, snap)
	if err != nil {
		return nil, err
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
	admitted, err := s.enter(sess)
	if err == nil && admitted == sess {
		s.restores.Add(1)
	}
	return admitted, err
}

// rebuild builds a session from its recipe and restores snap into it.
func (s *Server) rebuild(id, src, catalog string, c EngineConfig, snap sim.Snapshot) (*session, error) {
	sess, err := newSession(id, CreateRequest{Source: src, Catalog: catalog, Engine: c.Engine, Level: c.Level,
		Backend: c.Backend, Optimize: c.Optimize, Workers: c.Workers}, s.env())
	if err != nil {
		return nil, fmt.Errorf("rebuilding session %q: %w", id, err)
	}
	if err := sess.restoreSnapshot(snap); err != nil {
		sess.discard()
		return nil, fmt.Errorf("restoring session %q: %w", id, err)
	}
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
	if sess.fail(stateWedged, reason) {
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
	if !sess.fail(stateQuarantined, reason) {
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
		sess.releaseLocked()
	}()
}

// stepResult carries a step's outcome across the watchdog boundary.
type stepResult struct {
	resp StepResponse
	err  error
}

// runStep executes one step request on the live session behind sess (see
// live) under the watchdog.
func (s *Server) runStep(r *http.Request, sess *session, cycles uint64) (StepResponse, error) {
	return live(s, sess, func(sess *session) (StepResponse, error) { return s.watchStep(r, sess, cycles) })
}

// watchStep runs one step on sess under the watchdog. The work runs in a
// goroutine that owns the pool slot, the step context, and the cycle
// accounting, so when the watchdog fires the handler abandons the step
// without leaking the slot if the runaway ever finishes; if it never does,
// the slot is lost with the session — which is why the session is marked
// wedged and the bounded queue caps how much a few lost slots can back up.
func (s *Server) watchStep(r *http.Request, sess *session, cycles uint64) (StepResponse, error) {
	if err := sess.check(); err != nil {
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
		resp, err := sess.run(ctx, cycles)
		s.addCycles(resp.Ran)
		done <- stepResult{resp, err}
	}()
	watchdog := time.NewTimer(s.cfg.Watchdog)
	defer watchdog.Stop()
	select {
	case res := <-done:
		if res.err != nil {
			s.noteFailure(sess, res.err)
			return StepResponse{}, res.err
		}
		return res.resp, nil
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
	s.mux.HandleFunc("GET /v1/sessions/{id}", route(s, http.StatusOK,
		func(_ *http.Request, sess *session, _ struct{}) (SessionInfo, error) { return sess.describe() }))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/sessions/{id}/step", s.withIdem(route(s, http.StatusOK, s.stepOp)))
	s.mux.HandleFunc("POST /v1/sessions/{id}/regs", route(s, http.StatusOK, s.regsOp))
	s.mux.HandleFunc("GET /v1/sessions/{id}/profile", route(s, http.StatusOK, profileOp))
	s.mux.HandleFunc("POST /v1/sessions/{id}/break", route(s, http.StatusOK, breakOp))
	s.mux.HandleFunc("POST /v1/sessions/{id}/checkpoint", route(s, http.StatusOK,
		func(_ *http.Request, sess *session, _ struct{}) (CheckpointResponse, error) {
			return s.checkpoint(sess)
		}))
	s.mux.HandleFunc("POST /v1/sessions/{id}/restore", route(s, http.StatusOK, s.restoreOp))
	s.mux.HandleFunc("POST /v1/sessions/{id}/fork", route(s, http.StatusCreated, s.forkOp))
	s.mux.HandleFunc("POST /v1/sessions/{id}/reverse", route(s, http.StatusOK, s.reverseOp))
	s.mux.HandleFunc("GET /v1/sessions/{id}/trace", func(w http.ResponseWriter, _ *http.Request) {
		writeError(w, errTraceStreamGone)
	})
	s.mux.HandleFunc("POST /v1/sessions/{id}/trace/record", route(s, http.StatusOK, s.traceRecordOp))
	s.mux.HandleFunc("GET /v1/sessions/{id}/trace/status", route(s, http.StatusOK, s.traceStatusOp))
	s.mux.HandleFunc("POST /v1/sessions/{id}/trace/query", route(s, http.StatusOK, s.traceQueryOp))
	s.mux.HandleFunc("POST /v1/sessions/{id}/trace/diff", route(s, http.StatusOK, s.traceDiffOp))
	s.mux.HandleFunc("GET /v1/sessions/{id}/trace/vcd", s.onSession(s.traceVCD))
	s.mux.HandleFunc("POST /v1/sessions/{id}/export", route(s, http.StatusOK, s.exportOp))
	s.mux.HandleFunc("POST /v1/sessions/{id}/release", route(s, http.StatusOK, s.releaseOp))
	s.mux.HandleFunc("POST /v1/import", s.handleImport)
}

// onSession serves a request on one session that h answers itself: the
// path's id is looked up (resurrecting a durable session that is not live)
// and h runs on the live session (see live). An error h returns before it
// writes anything becomes the error response.
func (s *Server) onSession(h func(http.ResponseWriter, *http.Request, *session) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sess, err := s.lookup(r.PathValue("id"))
		if err == nil {
			_, err = live(s, sess, func(sess *session) (struct{}, error) { return struct{}{}, h(w, r, sess) })
		}
		if err != nil {
			writeError(w, err)
		}
	}
}

// route serves an operation on one session: the path's id is looked up
// (resurrecting a durable session that is not live), the JSON body is
// decoded into a Req (a struct{} Req takes no body), op runs on the live
// session — following it through concurrent retirements, see live — and
// its result is the response.
func route[Req, Resp any](s *Server, status int, op func(*http.Request, *session, Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sess, err := s.lookup(r.PathValue("id"))
		var req Req
		if _, none := any(req).(struct{}); err == nil && !none {
			err = s.decode(w, r, &req)
		}
		var resp Resp
		if err == nil {
			resp, err = live(s, sess, func(sess *session) (Resp, error) { return op(r, sess, req) })
		}
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, status, resp)
	}
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
// Retry-After hint (as is a session retired under a request more often than
// it could follow); toolchain bugs (diag.Internal) are 500; everything else
// the client can fix is 400.
func errorStatus(err error) (status, retryAfter int) {
	var he httpError
	var unknown unknownSession
	var internal *diag.Internal
	switch {
	case errors.As(err, &he):
		return he.status, 0
	case errors.As(err, &unknown):
		return http.StatusNotFound, 0
	case errors.Is(err, errNotDurable):
		return http.StatusConflict, 0
	case errors.Is(err, errTableFull):
		return http.StatusTooManyRequests, 2
	case errors.Is(err, errOverloaded), errors.Is(err, errRetired):
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
	sessions := s.table()
	lazy := 0
	for _, sess := range sessions {
		if sess.state().live() == phaseLazy {
			lazy++
		}
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	now := time.Now()
	writeJSON(w, http.StatusOK, Metrics{
		Sessions:     len(sessions),
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
		id = s.mintID("s")
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
	admitted, err := s.enter(sess)
	if err != nil {
		writeError(w, err)
		return
	}
	if admitted != sess {
		// Only reachable for claimed ids: daemon-minted ids are unique.
		writeError(w, httpError{http.StatusConflict,
			fmt.Errorf("session %q is already live", id)})
		return
	}
	s.writeInfo(w, http.StatusCreated, sess)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	sessions := s.table()
	resp := ListResponse{Sessions: make([]SessionInfo, 0, len(sessions))}
	for _, sess := range sessions {
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
	s.mu.Unlock()
	if live && cur.state().phase == phaseFailed {
		// A failed tombstone yields to resurrection: the client is asking for
		// the rebuild-from-last-durable-checkpoint the 409 message promised.
		// Retiring a failed session only drops its table entry.
		_ = s.retire(cur, false, false)
		live = false
	}
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
	s.writeInfo(w, http.StatusOK, sess)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess, ok := s.sessions[id]
	s.mu.Unlock()
	if ok {
		_ = s.retire(sess, false, true)
	} else {
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

func (s *Server) stepOp(r *http.Request, sess *session, req StepRequest) (StepResponse, error) {
	if req.Cycles == 0 || req.Cycles > s.cfg.MaxStepCycles {
		return StepResponse{}, fmt.Errorf("cycles must be in [1, %d], got %d", s.cfg.MaxStepCycles, req.Cycles)
	}
	return s.runStep(r, sess, req.Cycles)
}

func (s *Server) regsOp(_ *http.Request, sess *session, req RegsRequest) (RegsResponse, error) {
	resp, err := sess.regs(req)
	s.noteFailure(sess, err)
	return resp, err
}

func profileOp(_ *http.Request, sess *session, _ struct{}) (ProfileResponse, error) {
	resp, err := sess.profile()
	if err != nil {
		return resp, httpError{http.StatusConflict, err}
	}
	return resp, nil
}

func breakOp(_ *http.Request, sess *session, req BreakRequest) (map[string]string, error) {
	if err := sess.setBreak(req); err != nil {
		return nil, err
	}
	return map[string]string{"status": "ok"}, nil
}

func (s *Server) restoreOp(_ *http.Request, sess *session, req RestoreRequest) (SessionInfo, error) {
	if req.Checkpoint == "" {
		return SessionInfo{}, fmt.Errorf("checkpoint id required")
	}
	// Checked first: loadCheckpoint may take mu, which a wedged step holds.
	if err := sess.check(); err != nil {
		return SessionInfo{}, err
	}
	snap, err := s.loadCheckpoint(sess, req.Checkpoint)
	if err != nil {
		return SessionInfo{}, err
	}
	if err := sess.restoreSnapshot(snap); err != nil {
		s.noteFailure(sess, err)
		return SessionInfo{}, err
	}
	return s.infoOf(sess)
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

// forkOp creates a copy-on-write fork: the new session shares the
// parent's state as an immutable base snapshot plus its own dirty-register
// overlay, and builds no engine until its first mutation-heavy operation
// (step, trace, reverse, profile). A fork storm of N what-if sessions over
// one base therefore costs one retained register file plus N overlays, not
// N engines and N register files.
func (s *Server) forkOp(_ *http.Request, sess *session, _ struct{}) (SessionInfo, error) {
	if err := sess.lock(); err != nil {
		return SessionInfo{}, err
	}
	ov, err := sess.forkOverlayLocked()
	sess.mu.Unlock()
	if err != nil {
		return SessionInfo{}, err
	}
	fork := newLazyFork(s.mintID("f"), sess, ov)
	if _, err := s.enter(fork); err != nil {
		return SessionInfo{}, err
	}
	if s.store != nil && fork.durable() {
		// The fork is durable from birth: flatten the overlay into a stored
		// checkpoint before answering, so a backend that dies before the
		// fork's first step can still resurrect it. A fork the daemon cannot
		// persist is not admitted at all — half-durable sessions would break
		// the resurrection promise.
		if _, err := live(s, fork, s.checkpoint); err != nil {
			_ = s.retire(fork, false, true)
			_ = s.store.Remove(fork.id)
			return SessionInfo{}, fmt.Errorf("persisting fork %s: %w", fork.id, err)
		}
	}
	s.forks.Add(1)
	return s.infoOf(fork)
}

func (s *Server) reverseOp(r *http.Request, sess *session, req ReverseRequest) (SessionInfo, error) {
	if err := s.acquire(r.Context()); err != nil {
		return SessionInfo{}, fmt.Errorf("queue wait: %w", err)
	}
	defer s.release()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.StepTimeout)
	defer cancel()
	if err := sess.reverse(ctx, req.Cycles); err != nil {
		s.noteFailure(sess, err)
		return SessionInfo{}, err
	}
	// Described apart, so a retirement right after the reverse re-runs
	// only the description, never the reverse.
	return s.infoOf(sess)
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

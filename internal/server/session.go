package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cuttlego/internal/ast"
	"cuttlego/internal/bench"
	"cuttlego/internal/bits"
	"cuttlego/internal/cuttlesim"
	"cuttlego/internal/debug"
	"cuttlego/internal/diag"
	"cuttlego/internal/engine"
	"cuttlego/internal/faultinj"
	"cuttlego/internal/lang"
	"cuttlego/internal/native"
	"cuttlego/internal/sim"
	"cuttlego/internal/tracedb"
)

// errNotDurable marks operations (checkpoint, fork, reverse) that need the
// whole machine state to live inside the architectural snapshot. Sessions
// whose designs carry a testbench keep state outside the registers (memory
// images, workload cursors), so a snapshot alone cannot reproduce them.
var errNotDurable = errors.New("session is not self-driving; snapshot operations are unavailable")

// sessionEnv is the server-owned machinery a session needs beyond its own
// request: fault injection, the AOT compile cache (nil when the native tier
// is disabled), the promotion threshold, and the shared tier counters.
type sessionEnv struct {
	inj          *faultinj.Injector
	ncache       *native.Cache
	promoteAfter uint64
	stats        *tierStats
}

// tierStats counts tier transitions across all of a server's sessions.
type tierStats struct {
	promotions atomic.Uint64
	demotions  atomic.Uint64
}

// nativeBuild is the result of a session's asynchronous promotion compile,
// published through session.compiled. The design is the fresh instance the
// binary was emitted from; Launch needs it to verify the handshake digest.
type nativeBuild struct {
	design *ast.Design
	res    native.BuildResult
	err    error
}

// session is one hosted simulation. All simulation access goes through mu:
// the HTTP layer may serve many requests for the same session concurrently,
// but the engine is strictly single-threaded.
type session struct {
	id   string
	spec engine.Spec
	env  sessionEnv
	// exactly one of src/catalog is non-empty; it is what meta.json stores
	// and what resurrection replays.
	src     string
	catalog string
	// external marks designs whose machine state extends beyond the
	// architectural registers (an embedded testbench's memory images and
	// workload cursors); such sessions cannot be checkpointed or promoted.
	external bool
	// Immutable design facts cached at build time, so a wedged session —
	// whose mu may be held forever by a runaway step — can still be
	// described without touching the engine.
	designName    string
	nRegs, nRules int
	// d is the checked design, cached so lazy forks (which have no engine
	// yet) can answer register and breakpoint lookups. Designs are
	// immutable once built and structurally identical across rebuilds of
	// the same source, so sharing the parent's pointer is safe.
	d *ast.Design

	// st is the lifecycle state (lifecycle.go): the one place that says
	// whether the session is a lazy fork, live on which tier, being evicted,
	// failed, or closed. It is read without mu.
	st atomic.Pointer[state]

	mu       sync.Mutex
	eng      sim.Engine // nil while lazy (an unmaterialized fork) and once released
	tb       sim.Testbench
	conds    []sessionCond
	snaps    []sim.Snapshot // in-memory ring for reverse execution
	restored bool

	// rec, while non-nil, records every executed cycle into the session's
	// on-disk trace store (row c = register values at cycle c). Guarded by
	// mu; stepping drops to single-cycle chunks while recording, exactly as
	// it does for breakpoints.
	rec      *tracedb.Recorder
	traceDir string
	traceFS  faultinj.FS
	traceRow []uint64 // scratch row, reused every cycle

	// lazy, in the lazy phase, is the copy-on-write state of a fork that
	// has not diverged into its own engine: a shared immutable base snapshot
	// plus this fork's dirty registers. Reads (info, regs, checkpoint,
	// export, fork-of-fork) are answered from the overlay; the first
	// mutation-heavy operation (step, trace, reverse, profile) pays the
	// one-time materialization: build the engine, restore the flattened
	// overlay, clear lazy. Guarded by mu.
	lazy *sim.Overlay
	// forkBase caches the last snapshot published as a fork base, keyed by
	// (cycle, digest): ten thousand forks taken at the same parent state
	// share one retained register file instead of ten thousand copies.
	forkBase       *sim.Snapshot
	forkBaseDigest uint64

	// compiled publishes the asynchronous promotion compile's result.
	compiled atomic.Pointer[nativeBuild]

	// lastInfo caches the most recent successfully computed SessionInfo so
	// info() on a failed or retired session can answer without the engine.
	lastInfo atomic.Pointer[SessionInfo]

	// lastUsed orders LRU eviction; guarded by the server's mutex, not the
	// session's, so the server can scan it without stalling on a long step.
	lastUsed time.Time
}

type sessionCond struct {
	src  string
	eval func(sim.Engine) bool
}

// snapInterval is how often stepping records an in-memory snapshot for
// reverse execution (durable sessions only).
const snapInterval = 64

// maxMemSnaps bounds the in-memory snapshot ring. The cycle-0 snapshot is
// always kept so any cycle stays reachable (at replay cost).
const maxMemSnaps = 256

// buildInstance replays the session's design source: parse the posted
// .koika text, or rebuild the catalogue entry with its workload.
func buildInstance(src, catalog string) (bench.Instance, error) {
	if catalog != "" {
		bm, ok := bench.Lookup(catalog)
		if !ok {
			return bench.Instance{}, fmt.Errorf("unknown catalogue design %q (have %v)", catalog, bench.Names())
		}
		return bm.New(), nil
	}
	d, err := lang.Parse(src)
	if err != nil {
		return bench.Instance{}, err
	}
	return bench.Instance{Design: d}, nil
}

// newSession elaborates a design and builds its engine; env.inj, when
// non-nil, threads fault injection through every engine cycle.
func newSession(id string, req CreateRequest, env sessionEnv) (_ *session, err error) {
	defer diag.Guard("server: create session", &err)
	if (req.Source == "") == (req.Catalog == "") {
		return nil, fmt.Errorf("exactly one of source and catalog must be set")
	}
	spec, err := EngineConfig{
		Engine: req.Engine, Level: req.Level, Backend: req.Backend, Optimize: req.Optimize,
		Workers: req.Workers,
	}.spec()
	if err != nil {
		return nil, err
	}
	inst, err := buildInstance(req.Source, req.Catalog)
	if err != nil {
		return nil, err
	}
	eng, err := build(spec, inst, env.ncache)
	if err != nil {
		return nil, err
	}
	eng = wrapEngine(eng, env.inj)
	d := eng.Design()
	s := &session{
		id: id, spec: spec, env: env, src: req.Source, catalog: req.Catalog, eng: eng,
		external:   inst.Bench != nil,
		designName: d.Name, nRegs: len(d.Registers), nRules: len(d.Rules), d: d,
	}
	s.st.Store(&state{phase: s.startPhase()})
	if spec.Kind != "native" {
		// The native binary self-drives: whatever workload the catalogue
		// entry carries is compiled in as extfun bindings, so the host-side
		// testbench must not run on top of it.
		s.tb = inst.Bench
	}
	s.recordSnapshot()
	return s, nil
}

// discard closes a session that was built but never admitted to the table
// (a failed restore, a lost admit race, a full table): without this,
// native engines leak their subprocesses.
func (s *session) discard() {
	s.mu.Lock()
	s.markClosed(false)
	s.releaseLocked()
	s.mu.Unlock()
}

// durable reports whether snapshots fully determine the session. The test
// is the design, not the current engine: a native session over a design
// with an embedded testbench keeps memory images in subprocess globals that
// the architectural snapshot cannot capture.
func (s *session) durable() bool { return !s.external }

// design returns the design under simulation (immutable once built). It is
// cached at build time so a lazy fork can answer design questions before it
// has an engine.
func (s *session) design() *ast.Design { return s.d }

// --- copy-on-write forks ----------------------------------------------------

// forkOverlayLocked publishes the session's current state as a shared fork
// base and returns a fresh CoW overlay over it. Forking a lazy fork clones
// its overlay (O(dirty)) over the same base; forking a live session
// snapshots it, but consecutive forks at an unchanged state (cycle and
// digest both equal) reuse one retained base snapshot, so a 10k-fork storm
// of one state keeps one register file, not 10k. Callers hold mu.
func (s *session) forkOverlayLocked() (_ *sim.Overlay, err error) {
	defer diag.Guard("server: fork", &err)
	if s.lazy != nil {
		return s.lazy.Fork(), nil
	}
	if !s.durable() {
		return nil, errNotDurable
	}
	snapper, ok := s.eng.(sim.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("engine %s cannot snapshot", s.spec)
	}
	snap := snapper.Snapshot()
	digest := snap.Digest()
	if s.forkBase == nil || s.forkBase.Cycle != snap.Cycle || s.forkBaseDigest != digest {
		s.forkBase, s.forkBaseDigest = &snap, digest
	}
	return sim.NewOverlay(*s.forkBase), nil
}

// newLazyFork builds a copy-on-write fork session: no engine, just the
// overlay. The parent's design facts are shared (immutable), and the
// rebuild recipe is copied so materialization, checkpointing, and
// resurrection all work exactly as for a full session.
func newLazyFork(id string, parent *session, ov *sim.Overlay) *session {
	s := &session{
		id: id, spec: parent.spec, env: parent.env, src: parent.src, catalog: parent.catalog,
		designName: parent.designName, nRegs: parent.nRegs, nRules: parent.nRules, d: parent.d,
		lazy: ov,
	}
	s.st.Store(&state{phase: phaseLazy})
	return s
}

// materializeLocked turns a lazy fork into a full session: build the
// configured engine, flatten the overlay into an independent snapshot, and
// restore it. This is the one-time divergence cost a fork pays on its first
// mutation-heavy operation; until then it costs only its dirty map. Callers
// hold mu. On failure the session stays lazy (and healthy), so a transient
// build failure is retryable; any engine built along the way is closed.
func (s *session) materializeLocked() (err error) {
	if s.lazy == nil {
		return nil
	}
	defer diag.Guard("server: materialize fork", &err)
	inst, err := buildInstance(s.src, s.catalog)
	if err != nil {
		return fmt.Errorf("materializing fork %s: %w", s.id, err)
	}
	eng, err := build(s.spec, inst, s.env.ncache)
	if err != nil {
		return fmt.Errorf("materializing fork %s: %w", s.id, err)
	}
	defer func() {
		if err != nil {
			closeEngine(eng) // a panic inside Restore must not leak the engine
		}
	}()
	snapper, ok := eng.(sim.Snapshotter)
	if !ok {
		return fmt.Errorf("materializing fork %s: engine %s cannot restore", s.id, s.spec)
	}
	c0 := snapper.Snapshot() // fresh engine at cycle 0, for reverse execution
	snapper.Restore(s.lazy.Flatten())
	s.eng = wrapEngine(eng, s.env.inj)
	s.lazy = nil
	s.markMaterialized()
	s.snaps = append(s.snaps[:0], c0)
	s.recordSnapshot()
	return nil
}

// info snapshots the session's public description. Callers must not hold
// mu. A failed or retired session answers from cached facts (see
// cachedInfo); handlers use Server.writeInfo, which follows a retired
// session to its live successor instead.
func (s *session) info() SessionInfo {
	inf, err := s.describe()
	if err != nil {
		return s.cachedInfo()
	}
	return inf
}

// cachedInfo describes the session without its engine — a wedged session's
// mu may never come free, and a quarantined or retired session's engine is
// released — from immutable facts and the last healthy observation, with
// State set for a failed session.
func (s *session) cachedInfo() SessionInfo {
	inf := SessionInfo{
		ID: s.id, Design: s.designName, Engine: s.spec.String(),
		Registers: s.nRegs, Rules: s.nRules,
		Durable: s.durable(), Restored: s.restored,
		State: s.state().failure,
	}
	if last := s.lastInfo.Load(); last != nil {
		inf.Cycle, inf.Digest, inf.Tier = last.Cycle, last.Digest, last.Tier
	}
	return inf
}

// describe is info for a live session; a retired one reports errRetired.
func (s *session) describe() (SessionInfo, error) {
	if err := s.lock(); err != nil {
		if s.state().phase == phaseFailed {
			return s.cachedInfo(), nil
		}
		return SessionInfo{}, err
	}
	defer s.mu.Unlock()
	inf := s.cachedInfo()
	inf.Tier = s.state().tier()
	if s.lazy != nil {
		// An unmaterialized fork describes itself from its overlay; the
		// digest matches what a materialized engine would report, so parity
		// gates hold across the lazy/live boundary.
		inf.Cycle, inf.Digest, inf.Cow = s.lazy.Cycle(), fmt.Sprintf("%016x", s.lazy.Digest()), true
	} else {
		inf.Cycle, inf.Digest = s.eng.CycleCount(), fmt.Sprintf("%016x", sim.StateDigest(s.eng))
	}
	s.lastInfo.Store(&inf)
	return inf, nil
}

func (s *session) recordSnapshot() {
	if !s.durable() {
		return
	}
	snapper, ok := s.eng.(sim.Snapshotter)
	if !ok {
		return
	}
	snap := snapper.Snapshot()
	if n := len(s.snaps); n > 0 && s.snaps[n-1].Cycle == snap.Cycle {
		return
	}
	s.snaps = append(s.snaps, snap)
	if len(s.snaps) > maxMemSnaps {
		// Keep cycle 0, drop the oldest of the rest.
		copy(s.snaps[1:], s.snaps[2:])
		s.snaps = s.snaps[:len(s.snaps)-1]
	}
}

// step advances the session up to n cycles under ctx, stopping early on a
// conditional breakpoint. It returns cycles run and the breakpoint
// description ("" if none fired). Reported errors are toolchain bugs, not
// input problems: ctx expiry is a "timeout" stop, not an error.
func (s *session) step(ctx context.Context, n uint64) (uint64, string, error) {
	resp, err := s.run(ctx, n)
	return resp.Ran, resp.Stopped, err
}

// run is step, answering with the whole step response, taken under the
// same hold of mu as the step itself.
func (s *session) run(ctx context.Context, n uint64) (resp StepResponse, err error) {
	defer diag.Guard("server: step", &err)
	if err := s.lock(); err != nil {
		return resp, err
	}
	defer s.mu.Unlock()
	if err := s.materializeLocked(); err != nil {
		return resp, err
	}
	resp.Ran, resp.Stopped, err = s.stepLocked(ctx, n, nil)
	if err == nil {
		resp.Cycle, resp.Fired = s.eng.CycleCount(), s.fired()
	}
	return resp, err
}

// stepLocked is step's body; observe, when non-nil, runs after every cycle
// (the trace stream). Callers hold mu.
func (s *session) stepLocked(ctx context.Context, n uint64, observe func() error) (uint64, string, error) {
	s.maybePromoteLocked()
	start := s.eng.CycleCount()
	var i uint64
	for i < n {
		// Batch cycles between bookkeeping points: the next snapshot
		// boundary, but at most 1024 cycles between ctx checks, and single
		// cycles when a breakpoint or observer watches every cycle.
		chunk := n - i
		if chunk > 1024 {
			chunk = 1024
		}
		if len(s.conds) > 0 || observe != nil || s.rec != nil {
			chunk = 1
		} else if s.durable() {
			cyc := s.eng.CycleCount()
			if to := snapInterval - cyc%snapInterval; to < chunk {
				chunk = to
			}
		}
		select {
		case <-ctx.Done():
			return i, "timeout", nil
		default:
		}
		ran, err := sim.RunContext(ctx, s.eng, s.tb, chunk)
		i += ran
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				return i, "timeout", nil
			}
			if s.nativeDownLocked() {
				// The promoted subprocess died. The session's truth is the
				// snapshot ring: fall back to the in-process engine, replay
				// to the cycle the client was already credited with, and
				// keep stepping as if nothing happened. When demotion
				// itself fails, the original crash error propagates and the
				// session is quarantined — honest and sticky.
				if s.demoteLocked(ctx, start+i) {
					continue
				}
			}
			return i, "", err
		}
		if s.eng.CycleCount()%snapInterval == 0 {
			s.recordSnapshot()
		}
		if s.rec != nil {
			s.traceRow = s.rowLocked(s.traceRow)
			if err := s.rec.Append(s.eng.CycleCount(), s.traceRow); err != nil {
				return i, "", fmt.Errorf("trace recording: %w", err)
			}
		}
		if observe != nil {
			if err := observe(); err != nil {
				return i, "", err
			}
		}
		for _, c := range s.conds {
			if c.eval(s.eng) {
				return i, fmt.Sprintf("condition %q at cycle %d", c.src, s.eng.CycleCount()), nil
			}
		}
	}
	return i, "", nil
}

// nativeDownLocked reports whether the transparently promoted subprocess
// has died — the one engine failure a session recovers from by demoting.
// Crashes of sessions that explicitly asked for the native engine are not
// covered: the client chose that engine, so its death is a quarantine like
// any other engine failure.
func (s *session) nativeDownLocked() bool {
	if s.state().live() != phasePromoted {
		return false
	}
	ne, ok := underlying(s.eng).(*native.Engine)
	return ok && ne.Dead() != nil
}

// maybePromoteLocked is the hot-session promotion state machine, run at the
// top of every step. A durable cuttlesim session past the promotion
// threshold first kicks off an asynchronous compile (off the stepping hot
// path; the digest-keyed cache dedups identical designs), then — once the
// binary is ready — transfers its state to the subprocess via snapshot and
// swaps engines. The transfer is gated on digest equality: a native engine
// that does not resume at the exact architectural state the in-process
// engine left off is discarded and the session stays put (sticky, so a
// lying binary is not retried every step).
func (s *session) maybePromoteLocked() {
	switch s.state().live() {
	case phaseCompiling:
	case phaseEligible:
		if s.eng.CycleCount() < s.env.promoteAfter || !s.startCompile() {
			return
		}
		ncache, src, catalog := s.env.ncache, s.src, s.catalog
		go func() {
			// A fresh instance, not the live design: the emitter must not
			// race the stepping engine, and bindings stay nil so designs
			// with external functions fail the compile (and never promote)
			// instead of silently losing their binding state.
			b := &nativeBuild{}
			inst, err := buildInstance(src, catalog)
			if err == nil {
				b.design = inst.Design
				b.res, b.err = ncache.Build(inst.Design, nil)
			} else {
				b.err = err
			}
			s.compiled.Store(b)
		}()
		return
	default:
		return
	}
	b := s.compiled.Load()
	if b == nil {
		return // compile still running; keep interpreting
	}
	snapper, ok := s.eng.(sim.Snapshotter)
	if b.err != nil || !ok {
		s.pin()
		return
	}
	pre := sim.StateDigest(s.eng)
	snap := snapper.Snapshot()
	ne, err := s.env.ncache.Launch(b.design, b.res)
	if err != nil {
		s.env.ncache.Quarantine(b.res.Key, err)
		s.pin()
		return
	}
	if err := ne.RestoreSnapshot(snap); err != nil || sim.StateDigest(ne) != pre || ne.CycleCount() != snap.Cycle {
		_ = ne.Close()
		s.pin()
		return
	}
	closeEngine(s.eng)
	s.eng = wrapEngine(ne, s.env.inj)
	s.markPromoted()
	if s.env.stats != nil {
		s.env.stats.promotions.Add(1)
	}
}

// demoteLocked rolls a promoted session back onto its in-process engine
// after the subprocess died: rebuild the configured engine, restore the
// nearest in-memory snapshot at or below target, and deterministically
// replay the gap so the client-visible cycle count never moves backwards.
// Demotion is sticky — the binary just crashed, so the session does not
// try the native tier again.
func (s *session) demoteLocked(ctx context.Context, target uint64) bool {
	if s.state().live() != phasePromoted {
		return false
	}
	inst, err := buildInstance(s.src, s.catalog)
	if err != nil {
		return false
	}
	eng, err := build(s.spec, inst, nil)
	if err != nil {
		return false
	}
	i := sort.Search(len(s.snaps), func(i int) bool { return s.snaps[i].Cycle > target }) - 1
	if i < 0 {
		closeEngine(eng)
		return false
	}
	eng = wrapEngine(eng, s.env.inj)
	eng.(sim.Snapshotter).Restore(s.snaps[i])
	s.snaps = s.snaps[:i+1]
	closeEngine(s.eng) // reaps the dead subprocess
	s.eng = eng
	s.pin()
	if target > s.eng.CycleCount() {
		if _, err := sim.RunContext(ctx, s.eng, nil, target-s.eng.CycleCount()); err != nil {
			return false
		}
	}
	if s.env.stats != nil {
		s.env.stats.demotions.Add(1)
	}
	return true
}

// fired reports the last cycle's rule commits.
func (s *session) fired() map[string]bool {
	out := make(map[string]bool, len(s.design().Schedule))
	for _, name := range s.design().Schedule {
		out[name] = s.eng.RuleFired(name)
	}
	return out
}

// regs applies a batched poke/peek request.
func (s *session) regs(req RegsRequest) (_ RegsResponse, err error) {
	defer diag.Guard("server: regs", &err)
	if err := s.lock(); err != nil {
		return RegsResponse{}, err
	}
	defer s.mu.Unlock()
	d := s.design()
	// Pokes and peeks work directly on a lazy fork's overlay: a poke dirties
	// exactly one register (this is the cheap "set up a what-if" path fork
	// storms rely on), and peeks read through to the shared base.
	var (
		setReg func(string, bits.Bits)
		getReg func(string) bits.Bits
		cycle  func() uint64
	)
	if ov := s.lazy; ov != nil {
		setReg = func(name string, v bits.Bits) { ov.Set(d.RegIndex(name), v) }
		getReg = func(name string) bits.Bits { return ov.Reg(d.RegIndex(name)) }
		cycle = ov.Cycle
	} else {
		setReg, getReg, cycle = s.eng.SetReg, s.eng.Reg, s.eng.CycleCount
	}
	for name, rv := range req.Set {
		if !d.HasReg(name) {
			return RegsResponse{}, fmt.Errorf("design %q has no register %q", d.Name, name)
		}
		v, err := rv.Bits()
		if err != nil {
			return RegsResponse{}, fmt.Errorf("register %q: %w", name, err)
		}
		if want := d.Registers[d.RegIndex(name)].Type.BitWidth(); v.Width != want {
			return RegsResponse{}, fmt.Errorf("register %q is %d bits wide, got %d", name, want, v.Width)
		}
		setReg(name, v)
	}
	get := req.Get
	if req.All {
		get = get[:0]
		for _, r := range d.Registers {
			get = append(get, r.Name)
		}
	}
	resp := RegsResponse{Cycle: cycle(), Values: make(map[string]RegValue, len(get))}
	for _, name := range get {
		if !d.HasReg(name) {
			return RegsResponse{}, fmt.Errorf("design %q has no register %q", d.Name, name)
		}
		resp.Values[name] = FromBits(getReg(name))
	}
	return resp, nil
}

// setBreak installs or clears conditional breakpoints.
func (s *session) setBreak(req BreakRequest) (err error) {
	defer diag.Guard("server: break", &err)
	if err := s.lock(); err != nil {
		return err
	}
	defer s.mu.Unlock()
	if req.Clear {
		s.conds = nil
	}
	if req.Cond == "" {
		return nil
	}
	eval, err := debug.CompileCondition(s.design(), req.Cond)
	if err != nil {
		return err
	}
	s.conds = append(s.conds, sessionCond{src: req.Cond, eval: eval})
	return nil
}

// --- trace recording --------------------------------------------------------

// rowLocked samples every register into row (allocated when nil), in
// declaration order — the tracedb schema order. Callers hold mu.
func (s *session) rowLocked(row []uint64) []uint64 {
	d := s.design()
	if row == nil {
		row = make([]uint64, len(d.Registers))
	}
	for i, r := range d.Registers {
		row[i] = s.eng.Reg(r.Name).Val
	}
	return row
}

// record switches trace recording on or off. Disabling flushes and detaches
// the recorder but leaves the recording on disk, still queryable; enabling
// resumes an existing recording when it can continue contiguously from the
// session's current cycle (truncating a rewound suffix), and starts fresh
// otherwise. Recording works for any session — durable or not — but needs
// an on-disk home, so the server only offers it with a store.
func (s *session) record(on bool, dir string, fsys faultinj.FS) (err error) {
	defer diag.Guard("server: trace record", &err)
	if err := s.lock(); err != nil {
		return err
	}
	defer s.mu.Unlock()
	if !on {
		if s.rec == nil {
			return nil
		}
		err := s.rec.Flush()
		s.rec = nil
		return err
	}
	return s.startTraceLocked(dir, fsys)
}

// startTraceLocked begins (or resumes) recording into dir, positioning the
// recorder so the next executed cycle appends contiguously. Callers hold mu.
func (s *session) startTraceLocked(dir string, fsys faultinj.FS) error {
	if s.rec != nil {
		return nil
	}
	// Recording samples the live engine every cycle, so a lazy fork diverges
	// here.
	if err := s.materializeLocked(); err != nil {
		return err
	}
	cur := s.eng.CycleCount()
	rec, err := tracedb.Resume(dir, fsys)
	switch {
	case err != nil, rec != nil && rec.Meta().CheckDesign(s.design()) != nil:
		rec = nil // no recording, a damaged one, or another design's
	default:
		if last, ok := rec.LastCycle(); ok && cur > last+1 {
			// The session moved past the recorded suffix while recording was
			// off. Chunks must stay contiguous, so the gap cannot be
			// represented: restart at the current cycle.
			rec = nil
		} else if ok && cur <= last {
			if rec.Truncate(cur) != nil {
				rec = nil
			}
		}
	}
	if rec == nil {
		var err error
		rec, err = tracedb.Create(dir, fsys, tracedb.MetaFor(s.design(), tracedb.DefaultChunkCycles))
		if err != nil {
			return fmt.Errorf("trace recording: %w", err)
		}
	}
	if last, ok := rec.LastCycle(); !ok || last < cur {
		if err := rec.Append(cur, s.rowLocked(nil)); err != nil {
			return fmt.Errorf("trace recording: %w", err)
		}
	}
	s.rec, s.traceDir, s.traceFS = rec, dir, fsys
	return nil
}

// rewindTraceLocked repositions the recorder after the engine jumped to an
// arbitrary cycle (restore): rows past the new cycle are dropped so the
// replayed timeline re-records over a consistent prefix, and a jump past
// the recorded suffix restarts the recording (the gap cannot be
// represented). Callers hold mu.
func (s *session) rewindTraceLocked() error {
	if s.rec == nil {
		return nil
	}
	cur := s.eng.CycleCount()
	if last, ok := s.rec.LastCycle(); ok && cur > last+1 {
		rec, err := tracedb.Create(s.traceDir, s.traceFS, tracedb.MetaFor(s.design(), tracedb.DefaultChunkCycles))
		if err != nil {
			return fmt.Errorf("trace recording: %w", err)
		}
		s.rec = rec
	} else if err := s.rec.Truncate(cur); err != nil {
		return fmt.Errorf("trace recording: %w", err)
	}
	if last, ok := s.rec.LastCycle(); !ok || last < cur {
		if err := s.rec.Append(cur, s.rowLocked(nil)); err != nil {
			return fmt.Errorf("trace recording: %w", err)
		}
	}
	return nil
}

// traceFlush lands the recorder's buffered tail so a fresh Reader sees
// every recorded row, and reports whether the session is recording.
func (s *session) traceFlush() (recording bool) {
	if s.lock() != nil {
		return false
	}
	defer s.mu.Unlock()
	if s.rec != nil {
		_ = s.rec.Flush()
	}
	return s.rec != nil
}

// profile returns per-rule counters for engines that keep them (cuttlesim
// sessions — the daemon builds those with profiling on — and the native
// tier, whose binaries count attempts/commits/skips in the subprocess).
// A promoted session's counters restart at the promotion point.
func (s *session) profile() (ProfileResponse, error) {
	if err := s.lock(); err != nil {
		return ProfileResponse{}, err
	}
	defer s.mu.Unlock()
	if err := s.materializeLocked(); err != nil {
		return ProfileResponse{}, err
	}
	resp := ProfileResponse{Cycle: s.eng.CycleCount()}
	if ne, ok := underlying(s.eng).(*native.Engine); ok {
		prof, err := ne.Profile()
		for _, st := range prof {
			resp.Rules = append(resp.Rules, RuleProfile{Rule: st.Rule, Attempts: st.Attempts, Commits: st.Commits, Skipped: st.Skips})
		}
		return resp, err
	}
	cs, ok := underlying(s.eng).(*cuttlesim.Simulator)
	if !ok || cs.RuleStats() == nil {
		return ProfileResponse{}, fmt.Errorf("engine %s does not keep rule profiles (use a cuttlesim or native session)", s.spec)
	}
	for _, st := range cs.RuleStats() {
		resp.Rules = append(resp.Rules, RuleProfile{Rule: st.Rule, Attempts: st.Attempts, Commits: st.Commits, Skipped: st.Skipped})
	}
	return resp, nil
}

func (s *session) snapshotLocked() (sim.Snapshot, error) {
	if s.lazy != nil {
		// Checkpoint/export of an unmaterialized fork: flatten the overlay
		// into an independent snapshot without ever building an engine.
		return s.lazy.Flatten(), nil
	}
	if !s.durable() {
		return sim.Snapshot{}, errNotDurable
	}
	snapper, ok := s.eng.(sim.Snapshotter)
	if !ok {
		return sim.Snapshot{}, fmt.Errorf("engine %s cannot snapshot", s.spec)
	}
	return snapper.Snapshot(), nil
}

// restoreSnapshot rewinds (or fast-forwards) the live engine to snap.
func (s *session) restoreSnapshot(snap sim.Snapshot) (err error) {
	defer diag.Guard("server: restore", &err)
	if err := s.lock(); err != nil {
		return err
	}
	defer s.mu.Unlock()
	if !s.durable() {
		return errNotDurable
	}
	if len(snap.Regs) != len(s.design().Registers) {
		return fmt.Errorf("snapshot has %d registers, design %q has %d",
			len(snap.Regs), s.design().Name, len(s.design().Registers))
	}
	for i, r := range s.design().Registers {
		if snap.RegWidth(i) != r.Type.BitWidth() {
			return fmt.Errorf("snapshot register %d is %d bits, design register %q is %d",
				i, snap.RegWidth(i), r.Name, r.Type.BitWidth())
		}
	}
	if s.lazy != nil {
		// Restoring a lazy fork just swaps its overlay for one rooted at the
		// restored state: still no engine, still near-zero memory.
		s.lazy = sim.NewOverlay(snap)
		return nil
	}
	snapper, ok := s.eng.(sim.Snapshotter)
	if !ok {
		return fmt.Errorf("engine %s cannot restore", s.spec)
	}
	snapper.Restore(snap)
	// Drop now-future in-memory snapshots and remember this one.
	i := sort.Search(len(s.snaps), func(i int) bool { return s.snaps[i].Cycle > snap.Cycle })
	s.snaps = s.snaps[:i]
	s.recordSnapshot()
	return s.rewindTraceLocked()
}

// reverse steps the session n cycles backwards: restore the nearest
// earlier in-memory snapshot, then deterministically re-execute forward
// (breakpoints suppressed during replay).
func (s *session) reverse(ctx context.Context, n uint64) (err error) {
	defer diag.Guard("server: reverse", &err)
	if err := s.lock(); err != nil {
		return err
	}
	defer s.mu.Unlock()
	if !s.durable() {
		return errNotDurable
	}
	if err := s.materializeLocked(); err != nil {
		return err
	}
	cur := s.eng.CycleCount()
	if n > cur {
		return fmt.Errorf("cannot rewind %d cycles from cycle %d", n, cur)
	}
	target := cur - n
	i := sort.Search(len(s.snaps), func(i int) bool { return s.snaps[i].Cycle > target }) - 1
	if i < 0 {
		return fmt.Errorf("no snapshot at or before cycle %d", target)
	}
	snapper := s.eng.(sim.Snapshotter)
	snapper.Restore(s.snaps[i])
	s.snaps = s.snaps[:i+1]
	if err := s.rewindTraceLocked(); err != nil {
		return err
	}
	conds := s.conds
	s.conds = nil
	_, _, err = s.stepLocked(ctx, target-s.eng.CycleCount(), nil)
	s.conds = conds
	if err != nil {
		return err
	}
	if got := s.eng.CycleCount(); got != target {
		return fmt.Errorf("rewind replay stopped at cycle %d, want %d", got, target)
	}
	return nil
}

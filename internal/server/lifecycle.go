package server

import (
	"errors"
	"fmt"
	"net/http"

	"cuttlego/internal/sim"
)

// This file is the session lifecycle: one state value per session, and
// the transitions between states, each one function. DESIGN.md "Session
// lifecycle" tabulates them with their triggers and the HTTP status an
// operation gets in each state.
//
// The state is an immutable value behind an atomic pointer and every
// transition is a compare-and-swap, so the state is readable without the
// session mutex: info, list, delete and shutdown never block on a wedged
// step that may hold that mutex forever, and a wedge or an eviction claim
// (which do not take it) cannot lose a concurrent transition.

// phase is where a session is in its lifecycle.
type phase uint8

const (
	phaseLazy      phase = iota // a copy-on-write fork with no engine yet
	phaseEligible               // live in-process; promotes to the native tier past the threshold
	phaseCompiling              // live in-process; its promotion compile is running
	phasePinned                 // live in-process; never promotes
	phasePromoted               // live on the native tier by promotion; demotes if the subprocess dies
	phaseNative                 // live on the native tier because the client chose the native engine
	phaseEvicting               // claimed as an eviction victim; live until its checkpoint lands
	phaseFailed                 // wedged or quarantined: sticky, 409 for all but info/list/delete
	phaseClosed                 // retired: out of the table, engine released
)

// Failure kinds, reported as SessionInfo.State.
const (
	stateWedged      = "wedged"      // a step outlived the watchdog; the engine may be stuck inside one cycle
	stateQuarantined = "quarantined" // the engine panicked; diagnostics were captured and the engine closed
)

// state is one point in a session's lifecycle.
type state struct {
	phase phase
	// prior is the live phase an evicting session returns to if its
	// checkpoint fails; a live transition while evicting updates it.
	prior           phase
	failure, reason string // failed: the failure kind and why
	deleted         bool   // closed: by the client, not evicted or released
}

// live is the live phase: the phase, or the one an evicting session left.
func (st *state) live() phase {
	if st.phase == phaseEvicting {
		return st.prior
	}
	return st.phase
}

// tier is SessionInfo.Tier: "native" on the AOT subprocess tier.
func (st *state) tier() string {
	if p := st.live(); p == phasePromoted || p == phaseNative {
		return "native"
	}
	return ""
}

func (s *session) state() *state { return s.st.Load() }

// move applies a transition: next maps the current state to the new one,
// or reports false when the transition does not apply.
func (s *session) move(next func(state) (state, bool)) bool {
	for {
		cur := s.st.Load()
		to, ok := next(*cur)
		if !ok {
			return false
		}
		if s.st.CompareAndSwap(cur, &to) {
			return true
		}
	}
}

// shift moves a live session from one of the from phases to phase to; an
// evicting one stays evicting, returning to to.
func (s *session) shift(to phase, from ...phase) bool {
	return s.move(func(st state) (state, bool) {
		for _, f := range from {
			if st.live() == f {
				if st.phase == phaseEvicting {
					st.prior = to
				} else {
					st.phase = to
				}
				return st, true
			}
		}
		return st, false
	})
}

// startPhase is where a freshly built engine starts: a client-chosen native
// engine is on the native tier, a durable cuttlesim session on a daemon
// with promotion configured is eligible, and everything else is pinned.
func (s *session) startPhase() phase {
	switch {
	case s.spec.Kind == "native":
		return phaseNative
	case !s.external && s.env.ncache != nil && s.env.promoteAfter > 0 && s.spec.Kind == "cuttlesim":
		return phaseEligible
	}
	return phasePinned
}

// The transitions.

// markMaterialized: lazy → the fork's start phase, once its engine is built.
func (s *session) markMaterialized() bool { return s.shift(s.startPhase(), phaseLazy) }

// startCompile: eligible → compiling, once per session.
func (s *session) startCompile() bool { return s.shift(phaseCompiling, phaseEligible) }

// markPromoted: compiling → promoted, once the engine swap landed.
func (s *session) markPromoted() bool { return s.shift(phasePromoted, phaseCompiling) }

// pin: eligible, compiling or promoted → pinned. Promotion failed, was
// rolled back by the digest gate, or the promoted binary crashed and the
// session demoted: it does not try the native tier again.
func (s *session) pin() bool {
	return s.shift(phasePinned, phaseEligible, phaseCompiling, phasePromoted)
}

// claimEviction: any live phase → evicting. Called under the server mutex,
// so two admits never claim the same victim.
func (s *session) claimEviction() bool {
	return s.move(func(st state) (state, bool) {
		if st.phase >= phaseEvicting {
			return st, false
		}
		return state{phase: phaseEvicting, prior: st.phase}, true
	})
}

// abortEviction: evicting → the phase it left; the checkpoint failed.
func (s *session) abortEviction() bool {
	return s.move(func(st state) (state, bool) {
		return state{phase: st.prior}, st.phase == phaseEvicting
	})
}

// fail: any phase but failed and closed → failed (sticky).
func (s *session) fail(failure, reason string) bool {
	return s.move(func(st state) (state, bool) {
		return state{phase: phaseFailed, failure: failure, reason: reason},
			st.phase != phaseFailed && st.phase != phaseClosed
	})
}

// markClosed: any phase → closed, once the session left the table (or
// never entered it); closed → deleted when the client deletes a session
// that was evicted or released meanwhile. Callers hold mu and release the
// engine.
func (s *session) markClosed(deleted bool) bool {
	return s.move(func(st state) (state, bool) {
		return state{phase: phaseClosed, deleted: deleted || st.deleted},
			st.phase != phaseClosed || deleted && !st.deleted
	})
}

// errRetired reports an operation that reached its session after it was
// evicted or released; see live.
var errRetired = errors.New("session was retired while the request waited for it; retry")

// check gates every operation: a failed session answers 409 — "damaged",
// as opposed to 404's "does not exist" — a deleted one 404, a retired one
// errRetired; anything else may proceed.
func (s *session) check() error {
	switch st := s.state(); st.phase {
	case phaseFailed:
		return httpError{http.StatusConflict, fmt.Errorf(
			"session %s is %s (%s); delete it, or resurrect it from its last durable checkpoint", s.id, st.failure, st.reason)}
	case phaseClosed:
		if st.deleted {
			return errUnknownSession(s.id)
		}
		return errRetired
	}
	return nil
}

// lock takes mu for an operation. It checks the state first, without mu,
// so a wedged session fails fast, then again under mu, so no operation
// touches the engine of a session retired while it waited. On error mu is
// not held.
func (s *session) lock() error {
	if err := s.check(); err != nil {
		return err
	}
	s.mu.Lock()
	if err := s.check(); err != nil {
		s.mu.Unlock()
		return err
	}
	return nil
}

// closeEngine releases an engine's worker pool or subprocess, if it has
// one; a nil engine holds nothing.
func closeEngine(eng sim.Engine) {
	if c, ok := eng.(interface{ Close() error }); ok {
		_ = c.Close()
	}
}

// releaseLocked closes the trace recorder (flushed; the files outlive the
// session) and the engine. It is idempotent; callers hold mu.
func (s *session) releaseLocked() {
	if s.rec != nil {
		_ = s.rec.Close()
		s.rec = nil
	}
	closeEngine(s.eng)
	s.eng = nil
}

// enter admits a newly built session (see admit). A newcomer that does not
// get in — the table is full, or the id is live already and that session
// is returned instead — is discarded.
func (s *Server) enter(sess *session) (*session, error) {
	admitted, err := s.admit(sess)
	if err != nil || admitted != sess {
		sess.discard()
	}
	return admitted, err
}

// retire is the one way a session leaves service: delete, eviction,
// release, export with release, and shutdown all come here. With
// checkpoint set, a durable session is first checkpointed to the store,
// and a failed checkpoint aborts the retirement and leaves the session live
// (without checkpoint, retire cannot fail). Then it leaves the table and
// closes. A failed session only leaves the
// table: a wedged step may hold its mu forever, and a quarantined engine
// is already released.
func (s *Server) retire(sess *session, checkpoint, deleted bool) error {
	if sess.state().phase == phaseFailed {
		s.drop(sess)
		return nil
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return s.retireLocked(sess, checkpoint, deleted)
}

// retireLocked is retire for callers holding sess.mu; a closed session
// can only still become deleted.
func (s *Server) retireLocked(sess *session, checkpoint, deleted bool) error {
	if sess.state().phase == phaseClosed {
		sess.markClosed(deleted)
		return nil
	}
	if checkpoint && s.store != nil && sess.durable() {
		if _, err := s.checkpointLocked(sess); err != nil {
			return err
		}
	}
	s.drop(sess)
	sess.markClosed(deleted)
	sess.releaseLocked()
	return nil
}

// drop removes sess from the table, unless its id already belongs to a
// newer session.
func (s *Server) drop(sess *session) {
	s.mu.Lock()
	if s.sessions[sess.id] == sess {
		delete(s.sessions, sess.id)
	}
	s.mu.Unlock()
}

// maxRelookups bounds how often one request follows its session through
// retirements before it gives up with a retryable 503.
const maxRelookups = 4

// live runs op on sess. When op finds sess retired (evicted or released
// after the request looked it up), the id is looked up again — which
// resurrects it from the checkpoint the retirement wrote — and op reruns on
// the live session, so the work lands on state a later request will see.
func live[T any](s *Server, sess *session, op func(*session) (T, error)) (T, error) {
	for i := 0; ; i++ {
		v, err := op(sess)
		if !errors.Is(err, errRetired) || i == maxRelookups {
			return v, err
		}
		if sess, err = s.lookup(sess.id); err != nil {
			return v, err
		}
	}
}

// infoOf describes the live session behind sess.
func (s *Server) infoOf(sess *session) (SessionInfo, error) {
	return live(s, sess, (*session).describe)
}

// writeInfo answers with the description of the live session behind sess.
func (s *Server) writeInfo(w http.ResponseWriter, status int, sess *session) {
	inf, err := s.infoOf(sess)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, status, inf)
}

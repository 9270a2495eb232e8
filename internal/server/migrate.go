package server

import (
	"fmt"
	"net/http"

	"cuttlego/internal/diag"
	"cuttlego/internal/sim"
)

// This file is the node side of KSNP live migration: export packages a
// session's complete portable state (rebuild recipe + KSNP snapshot),
// import resurrects it elsewhere behind a StateDigest+cycle equality gate,
// and release retires a session to its durable state so another node can
// re-home it from a shared store. The routing gateway (internal/router)
// composes these into checkpoint → transfer → resurrect; the ownership
// invariant throughout is that a session is live on at most one node, and a
// node killed mid-transfer leaves durable-only state that the PR 7 recovery
// machinery resurrects exactly once.

// handleExport captures a session's state for transfer. With Release set,
// the capture and the retirement happen under one hold of sess.mu: the
// session is checkpointed durably (when a store is configured), closed, and
// removed from the table before the response leaves the node, so the
// exported bytes are the final word on its state and no request can slip in
// on the closed engine. A failure before the retirement leaves the session
// live and untouched — export is all-or-nothing.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	sess, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	var req ExportRequest
	if err := s.decode(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	// Gate before taking sess.mu: a wedged session's mu may be held forever.
	if err := sess.gate(); err != nil {
		writeError(w, err)
		return
	}
	resp, err := s.export(sess, req.Release)
	if err != nil {
		writeError(w, err)
		return
	}
	s.exports.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// export is handleExport's body, shared with tests.
func (s *Server) export(sess *session, release bool) (_ ExportResponse, err error) {
	defer diag.Guard("server: export", &err)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	snap, err := sess.snapshotLocked()
	if err != nil {
		return ExportResponse{}, err
	}
	data, err := snap.MarshalBinary()
	if err != nil {
		return ExportResponse{}, httpError{http.StatusInternalServerError, err}
	}
	resp := ExportResponse{
		ID: sess.id, Source: sess.src, Catalog: sess.catalog, Config: configOf(sess.spec),
		Cycle:    snap.Cycle,
		Digest:   fmt.Sprintf("%016x", snap.Digest()),
		Snapshot: data,
	}
	if release {
		// Durable handoff: persist first so a transfer that dies between
		// this response and the import on the target can re-home the session
		// from its last checkpoint instead of losing it.
		if s.store != nil && sess.durable() {
			if _, err := s.checkpointLocked(sess); err != nil {
				return ExportResponse{}, err
			}
		}
		s.mu.Lock()
		delete(s.sessions, sess.id)
		s.mu.Unlock()
		sess.closeEngine()
		resp.Released = true
	}
	return resp, nil
}

// handleRelease retires a live session to its durable state (checkpoint,
// close, drop from the table) without shipping its snapshot anywhere: the
// cheap half of migration when nodes share a store, where the target just
// resurrects from the checkpoint the release wrote.
func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	sess, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	if err := sess.gate(); err != nil {
		writeError(w, err)
		return
	}
	if s.store == nil {
		writeError(w, httpError{http.StatusConflict,
			fmt.Errorf("daemon runs without a store; releasing %q would lose it (use export instead)", sess.id)})
		return
	}
	sess.mu.Lock()
	_, err = s.checkpointLocked(sess)
	if err != nil {
		sess.mu.Unlock()
		writeError(w, err)
		return
	}
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()
	sess.closeEngine()
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]string{"released": sess.id})
}

// handleImport is the receiving end of a migration: rebuild the engine from
// the exported recipe, restore the snapshot, and admit the session only
// when the restored engine's StateDigest and cycle equal what the exporter
// promised. A transfer that fails the gate is discarded with its engine
// closed — a lying snapshot is never served — and an id that is already
// live here is a 409, never a second owner.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	var req ImportRequest
	if err := s.decode(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if !validID(req.ID) {
		writeError(w, fmt.Errorf("import needs a path-safe session id, got %q", req.ID))
		return
	}
	var snap sim.Snapshot
	if err := snap.UnmarshalBinary(req.Snapshot); err != nil {
		writeError(w, fmt.Errorf("import snapshot: %w", err))
		return
	}
	sess, err := newSession(req.ID, CreateRequest{
		Source: req.Source, Catalog: req.Catalog,
		Engine: req.Config.Engine, Level: req.Config.Level,
		Backend: req.Config.Backend, Optimize: req.Config.Optimize,
		Workers: req.Config.Workers,
	}, s.env())
	if err != nil {
		writeError(w, fmt.Errorf("rebuilding imported session %q: %w", req.ID, err))
		return
	}
	if err := sess.restoreSnapshot(snap); err != nil {
		sess.discard()
		writeError(w, fmt.Errorf("restoring imported session %q: %w", req.ID, err))
		return
	}
	// The parity gate: the rebuilt engine must resume at exactly the state
	// the exporter promised, measured on the live engine (not the snapshot
	// bytes — a restore that silently dropped state must not pass).
	sess.mu.Lock()
	gotDigest := fmt.Sprintf("%016x", sim.StateDigest(sess.eng))
	gotCycle := sess.eng.CycleCount()
	sess.mu.Unlock()
	if gotDigest != req.Digest || gotCycle != req.Cycle {
		sess.discard()
		writeError(w, httpError{http.StatusUnprocessableEntity,
			fmt.Errorf("import gate: restored session %q is at cycle %d digest %s, exporter promised cycle %d digest %s",
				req.ID, gotCycle, gotDigest, req.Cycle, req.Digest)})
		return
	}
	admitted, err := s.admit(sess)
	if err != nil {
		sess.discard()
		writeError(w, err)
		return
	}
	if admitted != sess {
		sess.discard()
		writeError(w, httpError{http.StatusConflict,
			fmt.Errorf("session %q is already live on this node", req.ID)})
		return
	}
	// Persist immediately so this node owns the durable state going forward;
	// a store failure here is worth surfacing but not worth killing a
	// correctly admitted session over, so it only logs into the error body
	// of a later checkpoint.
	if s.store != nil && sess.durable() {
		_, _ = s.checkpoint(sess)
	}
	s.imports.Add(1)
	writeJSON(w, http.StatusCreated, sess.info())
}

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

// exportOp captures a session's state for transfer. With Release set,
// the capture and the retirement happen under one hold of sess.mu: the
// session is checkpointed durably (when a store is configured), closed, and
// removed from the table before the response leaves the node, so the
// exported bytes are the final word on its state and no request can slip in
// on the closed engine. A failure before the retirement leaves the session
// live and untouched — export is all-or-nothing.
func (s *Server) exportOp(_ *http.Request, sess *session, req ExportRequest) (_ ExportResponse, err error) {
	defer diag.Guard("server: export", &err)
	if err := sess.lock(); err != nil {
		return ExportResponse{}, err
	}
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
	if req.Release {
		// Durable handoff: persist first so a transfer that dies between
		// this response and the import on the target can re-home the session
		// from its last checkpoint instead of losing it.
		if err := s.retireLocked(sess, true, false); err != nil {
			return ExportResponse{}, err
		}
		resp.Released = true
	}
	s.exports.Add(1)
	return resp, nil
}

// releaseOp retires a live session to its durable state (checkpoint,
// close, drop from the table) without shipping its snapshot anywhere: the
// cheap half of migration when nodes share a store, where the target just
// resurrects from the checkpoint the release wrote.
func (s *Server) releaseOp(_ *http.Request, sess *session, _ struct{}) (map[string]string, error) {
	if s.store == nil {
		return nil, httpError{http.StatusConflict,
			fmt.Errorf("daemon runs without a store; releasing %q would lose it (use export instead)", sess.id)}
	}
	if !sess.durable() {
		return nil, errNotDurable // a release without its checkpoint would lose the session
	}
	if err := sess.lock(); err != nil {
		return nil, err
	}
	defer sess.mu.Unlock()
	if err := s.retireLocked(sess, true, false); err != nil {
		return nil, err
	}
	return map[string]string{"released": sess.id}, nil
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
	sess, err := s.rebuild(req.ID, req.Source, req.Catalog, req.Config, snap)
	if err != nil {
		writeError(w, fmt.Errorf("import: %w", err))
		return
	}
	// The parity gate: the rebuilt engine must resume at exactly the state
	// the exporter promised, measured on the live engine (not the snapshot
	// bytes — a restore that silently dropped state must not pass).
	got := sess.info()
	if got.Digest != req.Digest || got.Cycle != req.Cycle {
		sess.discard()
		writeError(w, httpError{http.StatusUnprocessableEntity,
			fmt.Errorf("import gate: restored session %q is at cycle %d digest %s, exporter promised cycle %d digest %s",
				req.ID, got.Cycle, got.Digest, req.Cycle, req.Digest)})
		return
	}
	admitted, err := s.enter(sess)
	if err != nil {
		writeError(w, err)
		return
	}
	if admitted != sess {
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
	s.writeInfo(w, http.StatusCreated, sess)
}

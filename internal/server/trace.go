package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"cuttlego/internal/bits"
	"cuttlego/internal/faultinj"
	"cuttlego/internal/tracedb"
)

// This file is the trace-store side of the API: recording controls, indexed
// trace queries, run diffing, and VCD re-emission from the index. The
// recording lives in the durable store next to the session's checkpoints
// (<store>/sessions/<id>/trace/), so fleet backends sharing a store can all
// answer queries about a session and a re-homed session keeps its history.

// errTraceStreamGone answers the retired streaming endpoint GET
// /v1/sessions/{id}/trace: the trace store serves the same waveform, and
// the rules fired each cycle, from a recording.
var errTraceStreamGone = httpError{http.StatusGone, errors.New("the streaming trace endpoint is retired: " +
	"POST /v1/sessions/{id}/trace/record, step, then GET /v1/sessions/{id}/trace/vcd " +
	"(rule firings: POST /v1/sessions/{id}/trace/query with fired(rule))")}

// TraceRecordRequest switches trace recording on or off. Disabling leaves
// the recording on disk, still queryable; re-enabling resumes it when the
// session's cycle continues it contiguously, and restarts it otherwise.
type TraceRecordRequest struct {
	Enable bool `json:"enable"`
}

// TraceStatus describes a session's recording.
type TraceStatus struct {
	// Recording is set while the session appends a row per executed cycle.
	Recording bool `json:"recording"`
	// Present is set when a recording exists on disk (recording may have
	// since been disabled; the rows remain queryable).
	Present bool `json:"present"`
	// First/Last bound the recorded cycles (inclusive); Rows counts them.
	First uint64 `json:"first,omitempty"`
	Last  uint64 `json:"last,omitempty"`
	Rows  uint64 `json:"rows,omitempty"`
	// Chunks is the on-disk chunk count; ChunkCycles the rows per full chunk.
	Chunks      int    `json:"chunks,omitempty"`
	ChunkCycles uint64 `json:"chunk_cycles,omitempty"`
}

// TraceQueryRequest runs one indexed query over a session's recording.
// Either Query carries the one-line syntax ("first <expr> [in a..b]"), or
// the structured fields spell the same thing out. To is inclusive; 0 means
// "end of recording".
type TraceQueryRequest struct {
	Query string `json:"query,omitempty"`
	Mode  string `json:"mode,omitempty"`
	Expr  string `json:"expr,omitempty"`
	From  uint64 `json:"from,omitempty"`
	To    uint64 `json:"to,omitempty"`
	Limit int    `json:"limit,omitempty"`
}

// TraceQueryResponse is a query's answer plus the index-work accounting
// that shows how it was answered (chunks pruned by summaries vs decoded).
type TraceQueryResponse struct {
	Query   string   `json:"query"`
	Matched bool     `json:"matched,omitempty"`
	Cycle   uint64   `json:"cycle,omitempty"`
	Count   uint64   `json:"count,omitempty"`
	Matches []uint64 `json:"matches,omitempty"`

	ChunksScanned int    `json:"chunks_scanned"`
	ChunksSkipped int    `json:"chunks_skipped"`
	RowsEvaluated uint64 `json:"rows_evaluated"`
}

// TraceDiffRequest compares this session's recording against another
// session's. With Cycle set, the diff is at that exact cycle; otherwise the
// first divergence in [From, To] is located (To 0 = end of overlap).
type TraceDiffRequest struct {
	Other string  `json:"other"`
	Cycle *uint64 `json:"cycle,omitempty"`
	From  uint64  `json:"from,omitempty"`
	To    uint64  `json:"to,omitempty"`
}

// TraceDiffEntry is one signal whose recorded values differ.
type TraceDiffEntry struct {
	Signal string   `json:"signal"`
	A      RegValue `json:"a"`
	B      RegValue `json:"b"`
}

// TraceDiffResponse reports where (and how) two recordings diverge.
type TraceDiffResponse struct {
	A        string           `json:"a"`
	B        string           `json:"b"`
	Diverged bool             `json:"diverged"`
	Cycle    uint64           `json:"cycle,omitempty"`
	Entries  []TraceDiffEntry `json:"entries,omitempty"`
}

// traceHome resolves where a session's recording lives. Every trace feature
// needs the durable store: the recording is on-disk state by design, so a
// storeless daemon reports 409 rather than pretending.
func (s *Server) traceHome(id string) (string, faultinj.FS, error) {
	if s.store == nil {
		return "", nil, httpError{http.StatusConflict,
			fmt.Errorf("daemon runs without a store; trace recording needs one (-store)")}
	}
	dir, err := s.store.TraceDir(id)
	if err != nil {
		return "", nil, err
	}
	return dir, s.store.FS(), nil
}

// traceStatusFor summarizes a session's recording from disk (flushing the
// live tail first so the answer includes every recorded row).
func (s *Server) traceStatusFor(sess *session, dir string, fsys faultinj.FS) TraceStatus {
	st := TraceStatus{Recording: sess.traceFlush()}
	r, err := tracedb.Open(dir, fsys)
	if err != nil {
		return st
	}
	st.Present = true
	st.Chunks = len(r.Chunks())
	st.ChunkCycles = r.Meta().ChunkCycles
	if first, last, ok := r.Bounds(); ok {
		st.First, st.Last, st.Rows = first, last, last-first+1
	}
	return st
}

func (s *Server) traceRecordOp(r *http.Request, sess *session, req TraceRecordRequest) (TraceStatus, error) {
	dir, fsys, err := s.traceHome(sess.id)
	if err == nil {
		err = sess.record(req.Enable, dir, fsys)
		s.noteFailure(sess, err)
	}
	if err != nil {
		return TraceStatus{}, err
	}
	return s.traceStatusOp(r, sess, struct{}{})
}

func (s *Server) traceStatusOp(_ *http.Request, sess *session, _ struct{}) (TraceStatus, error) {
	dir, fsys, err := s.traceHome(sess.id)
	if err != nil {
		return TraceStatus{}, err
	}
	return s.traceStatusFor(sess, dir, fsys), nil
}

// queryFromRequest normalizes the two request forms into one tracedb.Query.
func queryFromRequest(req TraceQueryRequest) (tracedb.Query, error) {
	if req.Query != "" {
		return tracedb.ParseQuery(req.Query)
	}
	q := tracedb.Query{Mode: req.Mode, Expr: req.Expr, From: req.From, To: req.To, Limit: req.Limit}
	if q.Mode == "" {
		q.Mode = tracedb.ModeFirst
	}
	if q.To == 0 {
		q.To = math.MaxUint64
	}
	if q.Expr == "" {
		return q, fmt.Errorf("trace query needs an expression")
	}
	if q.To < q.From {
		return q, fmt.Errorf("trace query window %d..%d is empty", q.From, q.To)
	}
	return q, nil
}

// traceErr maps tracedb failures onto the API's status contract: a missing
// recording is the client's sequencing problem (409 — enable recording
// first), a damaged one is the daemon's (500).
func traceErr(err error) error {
	switch {
	case errors.Is(err, tracedb.ErrNoTrace):
		return httpError{http.StatusConflict, fmt.Errorf("%w; enable recording first", err)}
	case errors.Is(err, tracedb.ErrCorrupt):
		return httpError{http.StatusInternalServerError, err}
	}
	return err
}

// openTraceLocked lands sess's buffered trace tail and opens the recording
// in dir, so the reader sees every recorded row. Callers hold sess.mu,
// which also keeps a concurrent restore/reverse from rewriting chunk files
// under the reader.
func openTraceLocked(sess *session, dir string, fsys faultinj.FS) (*tracedb.Reader, error) {
	if sess.rec != nil {
		if err := sess.rec.Flush(); err != nil {
			return nil, httpError{http.StatusInternalServerError, fmt.Errorf("flush trace: %w", err)}
		}
	}
	rd, err := tracedb.Open(dir, fsys)
	if err != nil {
		return nil, traceErr(err)
	}
	return rd, nil
}

func (s *Server) traceQueryOp(_ *http.Request, sess *session, req TraceQueryRequest) (TraceQueryResponse, error) {
	q, err := queryFromRequest(req)
	if err != nil {
		return TraceQueryResponse{}, err
	}
	dir, fsys, err := s.traceHome(sess.id)
	if err != nil {
		return TraceQueryResponse{}, err
	}
	// The query never touches the engine; it runs under sess.mu only for
	// openTraceLocked's sake.
	if err := sess.lock(); err != nil {
		return TraceQueryResponse{}, err
	}
	defer sess.mu.Unlock()
	rd, err := openTraceLocked(sess, dir, fsys)
	if err != nil {
		return TraceQueryResponse{}, err
	}
	res, err := rd.Query(sess.design(), q)
	if err != nil {
		return TraceQueryResponse{}, traceErr(err)
	}
	return TraceQueryResponse{
		Query:   q.String(),
		Matched: res.Matched, Cycle: res.Cycle, Count: res.Count, Matches: res.Matches,
		ChunksScanned: res.ChunksScanned, ChunksSkipped: res.ChunksSkipped, RowsEvaluated: res.RowsEvaluated,
	}, nil
}

func (s *Server) traceDiffOp(_ *http.Request, sess *session, req TraceDiffRequest) (TraceDiffResponse, error) {
	resp := TraceDiffResponse{A: sess.id, B: req.Other}
	if req.Other == "" {
		return resp, fmt.Errorf("trace diff needs the other session's id")
	}
	dir, fsys, err := s.traceHome(sess.id)
	if err != nil {
		return resp, err
	}
	otherDir, _, err := s.traceHome(req.Other)
	if err != nil {
		return resp, err
	}
	// The other session need not be live here (its recording in the shared
	// store is enough), but when it is, flush its tail so the diff sees it.
	s.mu.Lock()
	other, live := s.sessions[req.Other]
	s.mu.Unlock()
	if live {
		other.traceFlush()
	}
	if err := sess.lock(); err != nil {
		return resp, err
	}
	defer sess.mu.Unlock()
	ra, err := openTraceLocked(sess, dir, fsys)
	if err != nil {
		return resp, err
	}
	rb, err := tracedb.Open(otherDir, fsys)
	if err != nil {
		return resp, traceErr(fmt.Errorf("session %q: %w", req.Other, err))
	}
	cycle := uint64(0)
	if req.Cycle != nil {
		cycle = *req.Cycle
		resp.Cycle = cycle
	} else {
		to := req.To
		if to == 0 {
			to = math.MaxUint64
		}
		cyc, diverged, err := tracedb.FirstDivergence(ra, rb, req.From, to)
		if err != nil || !diverged {
			return resp, traceErr(err)
		}
		resp.Cycle, cycle = cyc, cyc
	}
	entries, err := tracedb.DiffAt(ra, rb, cycle)
	if err != nil {
		return resp, traceErr(err)
	}
	for _, e := range entries {
		resp.Entries = append(resp.Entries, TraceDiffEntry{
			Signal: e.Signal,
			A:      FromBits(bits.New(e.Width, e.A)),
			B:      FromBits(bits.New(e.Width, e.B)),
		})
	}
	// Against a given cycle the diff diverged when any signal differs; a
	// located first divergence diverged by definition.
	resp.Diverged = req.Cycle == nil || len(resp.Entries) > 0
	return resp, nil
}

// traceVCD re-emits a window of the recording as VCD, from the index
// — no re-simulation, any recorded cycle range, byte-identical to what a
// vcd.Writer sampling the engine over the same cycles produces.
func (s *Server) traceVCD(w http.ResponseWriter, r *http.Request, sess *session) (err error) {
	q := r.URL.Query()
	from, to := uint64(0), uint64(math.MaxUint64)
	if v := q.Get("from"); v != "" {
		if from, err = strconv.ParseUint(v, 10, 64); err != nil {
			return fmt.Errorf("bad from cycle %q", v)
		}
	}
	if v := q.Get("to"); v != "" {
		if to, err = strconv.ParseUint(v, 10, 64); err != nil {
			return fmt.Errorf("bad to cycle %q", v)
		}
	}
	dir, fsys, err := s.traceHome(sess.id)
	if err != nil {
		return err
	}
	if err := sess.lock(); err != nil {
		return err
	}
	defer sess.mu.Unlock()
	rd, err := openTraceLocked(sess, dir, fsys)
	if err != nil {
		return err
	}
	// The response is written under sess.mu; a stalled client must not pin
	// the session forever, so the whole response gets one write budget.
	rc := http.NewResponseController(w)
	_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.StepTimeout))
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	// Nothing streamed yet on a window error (the header check runs before
	// the first byte); after that the stream just ends.
	return traceErr(rd.WriteVCD(w, from, to))
}

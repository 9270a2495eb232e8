package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"cuttlego/internal/bench"
	"cuttlego/internal/cuttlesim"
	"cuttlego/internal/debug"
	"cuttlego/internal/faultinj"
	"cuttlego/internal/kclient"
	"cuttlego/internal/native"
	"cuttlego/internal/server"
	"cuttlego/internal/sim"
	"cuttlego/internal/tracedb"
)

// The debug workload is interactive debugging through a ksimd session
// (Case Study 1's msi design): an in-process daemon on loopback, driven
// through kclient, no router. Every round sets up a fresh daemon with three
// msi sessions under one conditional breakpoint — a cuttlesim session, the
// same with trace recording on, and a native-tier session with both — runs
// each one window from cycle 0, continuing after every hit, and tears the
// daemon down. A second, long-lived daemon holds a fixed recording the
// seeded query set runs over once per round, as a fourth cell. So every
// round does the same work and is checked against one oracle.

type debugMode struct {
	id     string // session id and cell name
	engine string
	record bool
	window uint64 // cycles per round
	metric string // per-layer rate metric
}

var debugModes = []debugMode{
	{"break", "cuttlesim", false, 8192, "debug.break_cps"},
	{"record", "cuttlesim", true, 8192, "debug.record_cps"},
	{"native", "native", true, 2048, "debug.native_cps"},
}

// querySession is the session, on the query daemon, whose recording the
// query set reads. It is recorded for exactly QueryRows rows before the
// timed phase and then left alone, so every run of the set does the same
// work.
const querySession = "query"

// debugDaemon is an in-process daemon on a loopback port.
type debugDaemon struct {
	srv   *server.Server
	h     *httpd
	c     *kclient.Client
	dir   string
	store string
}

func (d *debugDaemon) close() {
	d.h.close()
	d.srv.Close()
}

// startDaemon starts a daemon storing under dir; a non-empty nativeDir
// enables the native tier. Closing a daemon with the native tier reaps
// every simulator subprocess in the process, so only the per-round
// daemons have it.
func startDaemon(cfg *config, dir, nativeDir string) (*debugDaemon, error) {
	store := filepath.Join(dir, "store")
	var (
		srv *server.Server
		err error
	)
	cfg.tr.timed("server.New", 0, 0, func() { srv, err = server.New(server.Config{StoreDir: store, NativeCacheDir: nativeDir}) })
	if err != nil {
		return nil, err
	}
	h, err := serveHTTP(srv.Handler())
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &debugDaemon{srv: srv, h: h, c: kclient.New(h.url), dir: dir, store: store}, nil
}

// debugSetup is one set-up: a daemon with the three sessions armed.
func debugSetup(ctx context.Context, cfg *config, in debugInputs, dir, nativeDir string) (*debugDaemon, error) {
	tr := cfg.tr
	d, err := startDaemon(cfg, dir, nativeDir)
	if err != nil {
		return nil, err
	}
	for _, m := range debugModes {
		req := server.CreateRequest{ID: m.id, Catalog: "msi", Engine: m.engine}
		if m.engine == "cuttlesim" {
			req.Level, req.Backend = "static", "closure"
		}
		tr.timed("kclient.Create", 0, 0, func() { _, err = d.c.Create(ctx, req) })
		if err == nil {
			tr.timed("kclient.Break", 0, 0, func() { err = d.c.Break(ctx, m.id, server.BreakRequest{Cond: in.Cond}) })
		}
		if err == nil && m.record {
			tr.timed("kclient.TraceRecord", 0, 0, func() { _, err = d.c.TraceRecord(ctx, m.id, true) })
		}
		if err != nil {
			d.close()
			return nil, fmt.Errorf("session %s: %w", m.id, err)
		}
	}
	return d, nil
}

// debugSession tracks one session's progress and breakpoint hits.
type debugSession struct {
	mode  debugMode
	cycle uint64
	hits  []uint64
}

// cont steps the session n cycles, resuming after each breakpoint hit. It
// reports whether every step request succeeded.
func (s *debugSession) cont(ctx context.Context, cfg *config, c *kclient.Client, n uint64, parent int, op uint64) bool {
	for n > 0 {
		var (
			resp server.StepResponse
			err  error
		)
		cfg.tr.timed("kclient.Step", parent, op, func() { resp, err = c.Step(ctx, s.mode.id, n) })
		if !cfg.rep.op(err) {
			return false
		}
		if !cfg.rep.check(resp.Ran > 0 && resp.Ran <= n && resp.Cycle == s.cycle+resp.Ran,
			"%s: step of %d ran %d to cycle %d from %d", s.mode.id, n, resp.Ran, resp.Cycle, s.cycle) {
			return false
		}
		s.cycle += resp.Ran
		n -= resp.Ran
		if resp.Stopped != "" {
			if !cfg.rep.check(strings.HasPrefix(resp.Stopped, "condition"), "%s: stopped: %s", s.mode.id, resp.Stopped) {
				return false
			}
			s.hits = append(s.hits, resp.Cycle)
		}
	}
	return true
}

// check compares the session's breakpoint hits and final state with the
// oracle.
func (s *debugSession) check(ctx context.Context, cfg *config, c *kclient.Client, or *debugOracleResult) {
	rep := cfg.rep
	want := or.hitsUpTo(s.cycle)
	rep.check(slices.Equal(s.hits, want), "%s: breakpoint hits %v, oracle %v", s.mode.id, s.hits, want)
	info, err := c.Info(ctx, s.mode.id)
	if !rep.op(err) {
		return
	}
	v, err := strconv.ParseUint(info.Digest, 16, 64)
	rep.check(err == nil && info.Cycle == s.cycle && v == or.digests[s.cycle],
		"%s: cycle %d digest %q, oracle cycle %d digest %016x", s.mode.id, info.Cycle, info.Digest, s.cycle, or.digests[s.cycle])
}

func runDebug(ctx context.Context, cfg *config) error {
	rep, tr := cfg.rep, cfg.tr
	in := genDebugInputs(cfg.seed)

	// Untimed pre-phase: the cold compile of the native msi binary into the
	// cache every set-up's daemon opens warm, the oracle, and the query
	// daemon with its recording.
	nativeDir := filepath.Join(cfg.tmp, "native-cache")
	nc, err := native.OpenCache(nativeDir, native.CacheOptions{})
	if err != nil {
		return err
	}
	bm, _ := bench.Lookup("msi")
	inst := bm.New()
	if _, err := nc.Build(inst.Design, inst.Native); err != nil {
		return err
	}
	finals := make(map[uint64]bool)
	for _, m := range debugModes {
		finals[m.window] = true
	}
	or, err := debugOracle(in, finals)
	if err != nil {
		return err
	}
	qd, err := startDaemon(cfg, filepath.Join(cfg.tmp, "query"), "")
	if err != nil {
		return err
	}
	defer qd.close()
	if err := debugRecordQueryRows(ctx, cfg, qd.c, in.QueryRows); err != nil {
		return err
	}

	cells := make([]*cell, len(debugModes))
	for i, m := range debugModes {
		cells[i] = &cell{cycles: m.window}
	}
	// The query cell's rate is recorded rows searched per second: every
	// query covers the QueryRows rows.
	qcell := &cell{cycles: in.QueryRows * uint64(len(in.Queries))}
	var (
		setups, traced, untraced []float64
		hits                     int
	)
	gc0 := gcPause()
	more := cfg.budget.more()
	for round := 0; more(round); round++ {
		op := uint64(round)
		runtime.GC() // each set-up starts from a collected heap
		start := time.Now()
		d, err := debugSetup(ctx, cfg, in, filepath.Join(cfg.tmp, fmt.Sprintf("round%d", round)), nativeDir)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())

		rt := tr.start("round", 0, op)
		var sessions []*debugSession
		for i, m := range debugModes {
			s := &debugSession{mode: m}
			sessions = append(sessions, s)
			ct := tr.start("continue."+m.id, rt.id, op)
			ok := s.cont(ctx, cfg, d.c, m.window, ct.id, op)
			if dur := ct.stop(); ok {
				cells[i].add(dur)
			}
		}
		qt := tr.start("query-set", rt.id, op)
		ok := true
		for i, q := range in.Queries {
			var (
				a   server.TraceQueryResponse
				err error
			)
			tr.timed("kclient.TraceQuery", qt.id, op, func() {
				a, err = qd.c.TraceQuery(ctx, querySession, server.TraceQueryRequest{Query: q})
			})
			want := or.answers[i]
			ok = rep.op(err) && rep.check(a.Matched == want.Matched && a.Cycle == want.Cycle && a.Count == want.Count,
				"query %q: matched=%v cycle=%d count=%d, oracle matched=%v cycle=%d count=%d",
				q, a.Matched, a.Cycle, a.Count, want.Matched, want.Cycle, want.Count) && ok
		}
		if dur := qt.stop(); ok {
			qcell.add(dur)
		}
		if dur := rt.stop(); tr.traces(op) {
			traced = append(traced, ms(dur))
		} else {
			untraced = append(untraced, ms(dur))
		}

		for _, s := range sessions {
			s.check(ctx, cfg, d.c, or)
			hits += len(s.hits)
		}
		d.close()
		rep.op(os.RemoveAll(d.dir))
	}
	rep.set("gc.pause_ms", ms(gcPause()-gc0))
	if len(traced) > 0 && len(untraced) > 0 {
		rep.set("trace.overhead_pct", 100*(median(traced)/median(untraced)-1))
	}
	rep.set("setup_s", median(setups))
	rep.set("live_heap_mb", liveHeapMB())
	setRate(rep, append(cells, qcell))
	rep.set("debug.query_s", median(qcell.lat)/1e3)
	for i, m := range debugModes {
		rep.set(m.metric, cells[i].cps())
	}
	rep.set("debug.hits", float64(hits))

	if cfg.traced {
		st, err := server.OpenStore(qd.store)
		if err != nil {
			return err
		}
		dir, err := st.TraceDir(querySession)
		if err != nil {
			return err
		}
		return debugProbes(cfg, in, nc, dir)
	}
	return nil
}

// debugRecordQueryRows creates the query session and records its first
// rows cycles (rows 0..rows-1), then turns recording off, which lands the
// recording's tail.
func debugRecordQueryRows(ctx context.Context, cfg *config, c *kclient.Client, rows uint64) error {
	rep := cfg.rep
	_, err := c.Create(ctx, server.CreateRequest{ID: querySession, Catalog: "msi", Level: "static", Backend: "closure"})
	if !rep.op(err) {
		return err
	}
	if _, err := c.TraceRecord(ctx, querySession, true); !rep.op(err) {
		return err
	}
	for cycle := uint64(0); cycle < rows-1; {
		resp, err := c.Step(ctx, querySession, rows-1-cycle)
		if !rep.op(err) {
			return err
		}
		if !rep.check(resp.Ran > 0 && resp.Cycle == cycle+resp.Ran, "%s: step from cycle %d ran %d to %d", querySession, cycle, resp.Ran, resp.Cycle) {
			return fmt.Errorf("%s: recording stalled at cycle %d", querySession, cycle)
		}
		cycle = resp.Cycle
	}
	_, err = c.TraceRecord(ctx, querySession, false)
	if !rep.op(err) {
		return err
	}
	return nil
}

// debugOracleResult is what an in-process replay says the daemon should
// have answered.
type debugOracleResult struct {
	hits    []uint64          // every cycle at which the breakpoint holds
	digests map[uint64]uint64 // state digest at each requested cycle
	answers []tracedb.Result  // one per query
}

func (o *debugOracleResult) hitsUpTo(cycle uint64) []uint64 {
	var out []uint64
	for _, h := range o.hits {
		if h <= cycle {
			out = append(out, h)
		}
	}
	return out
}

// debugOracle replays msi on an in-process engine up to the largest cycle
// in finals, evaluating the breakpoint after every cycle and every query
// predicate on every row of the queried window, with predicates compiled
// by debug.CompileCondition — the daemon's own condition semantics.
func debugOracle(in debugInputs, finals map[uint64]bool) (*debugOracleResult, error) {
	bm, _ := bench.Lookup("msi")
	d := bm.New().Design
	e, err := cuttlesim.New(d, cuttlesim.Options{Level: cuttlesim.LStatic, Backend: cuttlesim.Closure})
	if err != nil {
		return nil, err
	}
	brk, err := debug.CompileCondition(d, in.Cond)
	if err != nil {
		return nil, err
	}
	qs := make([]tracedb.Query, len(in.Queries))
	preds := make([]func(sim.Engine) bool, len(in.Queries))
	for i, s := range in.Queries {
		if qs[i], err = tracedb.ParseQuery(s); err != nil {
			return nil, err
		}
		if preds[i], err = debug.CompileCondition(d, qs[i].Expr); err != nil {
			return nil, err
		}
	}
	var upto uint64
	for c := range finals {
		upto = max(upto, c)
	}
	upto = max(upto, in.QueryRows-1)
	res := &debugOracleResult{digests: make(map[uint64]uint64), answers: make([]tracedb.Result, len(qs))}
	for c := uint64(0); ; c++ {
		if c > 0 && brk(e) {
			res.hits = append(res.hits, c)
		}
		for i, q := range qs {
			if c < q.From || c > q.To || c >= in.QueryRows || !preds[i](e) {
				continue
			}
			a := &res.answers[i]
			switch q.Mode {
			case tracedb.ModeFirst:
				if !a.Matched {
					a.Matched, a.Cycle = true, c
				}
			case tracedb.ModeLast:
				a.Matched, a.Cycle = true, c
			case tracedb.ModeCount:
				a.Count++
			}
		}
		if finals[c] {
			res.digests[c] = sim.StateDigest(e)
		}
		if c == upto {
			return res, nil
		}
		e.Cycle()
	}
}

// debugProbes measures the debug path's layers one at a time, on the
// same design and inputs: the engine cycle, RunContext's per-call cost, the
// breakpoint predicate, trace appends and chunk writes, the native tier's
// round trips, and each query straight against the recording.
func debugProbes(cfg *config, in debugInputs, nc *native.Cache, traceDir string) error {
	rep, tr := cfg.rep, cfg.tr
	ctx := context.Background()
	bm, _ := bench.Lookup("msi")
	d := bm.New().Design
	e, err := cuttlesim.New(d, cuttlesim.Options{Level: cuttlesim.LStatic, Backend: cuttlesim.Closure})
	if err != nil {
		return err
	}
	pred, err := debug.CompileCondition(d, in.Cond)
	if err != nil {
		return err
	}
	// Each probe times batches of calls and reports the median per-call
	// cost; paired probes alternate batches so drift hits both alike.
	const batch, batches = 1024, 32
	perCall := func(name string, fn func()) float64 {
		return us(tr.timed(name, 0, 0, func() {
			for i := 0; i < batch; i++ {
				fn()
			}
		})) / batch
	}
	var cycle, run1, cond []float64
	for b := 0; b < batches; b++ {
		c := perCall("cuttlesim.Cycle", e.Cycle)
		cycle = append(cycle, c)
		run1 = append(run1, perCall("sim.RunContext(1)", func() { sim.RunContext(ctx, e, nil, 1) })-c)
		cond = append(cond, perCall("debug.predicate", func() { pred(e) }))
	}
	rep.set("cuttlesim.cycle_us", median(cycle))
	rep.set("sim.run1_us", median(run1))
	rep.set("debug.cond_eval_us", median(cond))
	if r := rep.get("debug.break_cps"); r > 0 {
		rep.set("server.debug_overhead_us_per_cycle", 1e6/r-median(cycle)-median(cond))
	}

	// Recorder: appends of msi rows, one chunk write every 1024 rows.
	var rec *tracedb.Recorder
	tr.timed("tracedb.Create", 0, 0, func() {
		rec, err = tracedb.Create(filepath.Join(cfg.tmp, "probe-trace"), faultinj.OS(), tracedb.MetaFor(d, tracedb.DefaultChunkCycles))
	})
	if err != nil {
		return err
	}
	row := make([]uint64, len(d.Registers))
	var appends, writes []float64
	for i := 0; i < 16*tracedb.DefaultChunkCycles; i++ {
		for j, r := range d.Registers {
			row[j] = e.Reg(r.Name).Val
		}
		cyc := e.CycleCount()
		dur := tr.timed("tracedb.Append", 0, 0, func() { err = rec.Append(cyc, row) })
		if !rep.op(err) {
			break
		}
		if rec.Rows()%tracedb.DefaultChunkCycles == 0 {
			writes = append(writes, ms(dur))
		} else {
			appends = append(appends, us(dur))
		}
		e.Cycle()
	}
	tr.timed("tracedb.Flush", 0, 0, func() { err = rec.Flush() })
	rep.op(err)
	rep.op(rec.Close())
	rep.set("tracedb.append_us", median(appends))
	rep.set("tracedb.chunk_write_ms", median(writes))
	rep.set("tracedb.chunks_written", float64(len(writes)))

	// Native tier: one cycle, and one full-state peek, per round trip.
	inst := bm.New()
	br, err := nc.Build(inst.Design, inst.Native)
	if err != nil {
		return err
	}
	ne, err := native.Launch(inst.Design, br)
	if err != nil {
		return err
	}
	defer ne.Close()
	// A debug session pays both per cycle: the step, then the state refresh
	// its first register read triggers.
	var rtt, peek []float64
	for b := 0; b < batches; b++ {
		rtt = append(rtt, perCall("native.Cycle", ne.Cycle))
		peek = append(peek, perCall("native.Cycle+PeekAll", func() {
			ne.Cycle()
			_, err = ne.PeekAll()
		})-rtt[b])
	}
	rep.op(err)
	rep.set("native.cycle_rtt_us", median(rtt))
	rep.set("native.peek_all_us", median(peek))
	rep.set("native.cache_hits", float64(nc.StatsSnapshot().Hits))
	rep.set("native.compiles", float64(nc.StatsSnapshot().Builds))

	// Queries straight against the recording the daemon wrote.
	var rd *tracedb.Reader
	tr.timed("tracedb.Open", 0, 0, func() { rd, err = tracedb.Open(traceDir, faultinj.OS()) })
	if err != nil {
		return err
	}
	var qms []float64
	var scanned, skipped int
	var rows uint64
	for _, s := range in.Queries {
		q, err := tracedb.ParseQuery(s)
		if err != nil {
			return err
		}
		var res tracedb.Result
		dur := tr.timed("tracedb.Query", 0, 0, func() { res, err = rd.Query(d, q) })
		rep.op(err)
		qms = append(qms, ms(dur))
		scanned += res.ChunksScanned
		skipped += res.ChunksSkipped
		rows += res.RowsEvaluated
	}
	rep.set("tracedb.query_ms", median(qms))
	rep.set("tracedb.chunks_scanned", float64(scanned))
	rep.set("tracedb.chunks_skipped", float64(skipped))
	rep.set("tracedb.rows_evaluated", float64(rows))
	if scanned+skipped > 0 {
		rep.set("tracedb.prune_ratio", float64(skipped)/float64(scanned+skipped))
	}
	return nil
}

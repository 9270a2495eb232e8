package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"cuttlego/internal/bench"
	"cuttlego/internal/cuttlesim"
	"cuttlego/internal/kclient"
	"cuttlego/internal/router"
	"cuttlego/internal/server"
	"cuttlego/internal/sim"
)

// The serve workload is service traffic through the fleet: a router in
// front of two daemons sharing one store, all in process on loopback. Two
// closed-loop clients (each waits for its reply before sending the next
// request, like kdbg and kdap) each own eight collatz sessions and send a
// seeded mix of 64-cycle steps, register peeks, checkpoints and
// fork-then-delete. The design is tiny, so the per-request layers dominate.

const serveClients = 2

// serveRoundOps is how many requests each client sends per round of the
// timed phase. A round takes about 0.15 s, a spare set-up under 10 ms.
const serveRoundOps = 256

// serveFleet is one set-up: the daemons, the router, and the sessions.
type serveFleet struct {
	srvs    []*server.Server
	hs      []*httpd // daemons, then the router last
	rt      *router.Router
	c       *kclient.Client // through the router
	session [serveClients][servePerClient]string
}

func (f *serveFleet) close() {
	for _, h := range f.hs {
		h.close()
	}
	if f.rt != nil {
		f.rt.Close()
	}
	for _, s := range f.srvs {
		s.Close()
	}
}

func serveSetup(ctx context.Context, cfg *config, dir string) (*serveFleet, error) {
	tr := cfg.tr
	store := filepath.Join(dir, "store")
	f := &serveFleet{}
	var urls []string
	for i := 0; i < 2; i++ {
		var (
			srv *server.Server
			err error
		)
		tr.timed("server.New", 0, 0, func() { srv, err = server.New(server.Config{StoreDir: store}) })
		if err != nil {
			f.close()
			return nil, err
		}
		f.srvs = append(f.srvs, srv)
		h, err := serveHTTP(srv.Handler())
		if err != nil {
			f.close()
			return nil, err
		}
		f.hs = append(f.hs, h)
		urls = append(urls, h.url)
	}
	var err error
	tr.timed("router.New", 0, 0, func() { f.rt, err = router.New(router.Config{Backends: urls, StoreDir: store}) })
	if err != nil {
		f.close()
		return nil, err
	}
	f.rt.Probe()
	h, err := serveHTTP(f.rt.Handler())
	if err != nil {
		f.close()
		return nil, err
	}
	f.hs = append(f.hs, h)
	f.c = kclient.New(h.url)
	for cl := 0; cl < serveClients; cl++ {
		for s := 0; s < servePerClient; s++ {
			id := fmt.Sprintf("c%d-s%d", cl, s)
			tr.timed("kclient.Create", 0, 0, func() { _, err = f.c.Create(ctx, server.CreateRequest{ID: id, Catalog: "collatz"}) })
			if err != nil {
				f.close()
				return nil, fmt.Errorf("create %s: %w", id, err)
			}
			f.session[cl][s] = id
		}
	}
	return f, nil
}

// serveEvent is one observation of a session's state the oracle re-derives
// at its cycle: a state digest (checkpoint, fork child, final info) or the
// hash of every register value a peek returned.
type serveEvent struct {
	cycle uint64
	hash  uint64
	kind  opKind // opStep marks the final info
}

// regsHash hashes register values (name and hex, in name order), so a peek
// is remembered in eight bytes.
func regsHash(values map[string]string) uint64 {
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, n := range names {
		fmt.Fprintf(h, "%s=%s\n", n, values[n])
	}
	return h.Sum64()
}

// serveClient is one closed-loop client's state and measurements. Its
// observations are spooled to a file rather than kept in memory, so the
// benchmark's own heap does not grow with the number of requests served
// (live_heap_mb would count it).
type serveClient struct {
	id       int
	stream   *opStream
	cycle    [servePerClient]uint64
	log      *os.File
	w        *bufio.Writer // observations: session, kind, cycle, hash
	steps    hist          // step latencies
	traced   hist          // steps of traced operations (traced run)
	untraced hist
	ckpt     hist
	fork     hist
	requests int
	sent     int // operations issued, for operation ids
}

const eventSize = 18

func (cl *serveClient) note(s int, ev serveEvent) {
	var b [eventSize]byte
	b[0], b[1] = byte(s), byte(ev.kind)
	binary.LittleEndian.PutUint64(b[2:], ev.cycle)
	binary.LittleEndian.PutUint64(b[10:], ev.hash)
	cl.w.Write(b[:]) // a write error sticks and surfaces at Flush
}

// record notes a digest the daemon reported; an unparsable one is a
// failed check straight away.
func (cl *serveClient) record(rep *report, id string, s int, cycle uint64, digest string, kind opKind) {
	v, err := strconv.ParseUint(digest, 16, 64)
	if rep.check(err == nil, "%s: %s digest %q", id, kind, digest) {
		cl.note(s, serveEvent{cycle: cycle, hash: v, kind: kind})
	}
}

// events reads the spooled observations back, per session, in the order
// they were made.
func (cl *serveClient) events() ([servePerClient][]serveEvent, error) {
	var out [servePerClient][]serveEvent
	if err := cl.w.Flush(); err != nil {
		return out, err
	}
	raw, err := os.ReadFile(cl.log.Name())
	if err != nil {
		return out, err
	}
	for ; len(raw) >= eventSize; raw = raw[eventSize:] {
		s := int(raw[0])
		out[s] = append(out[s], serveEvent{kind: opKind(raw[1]),
			cycle: binary.LittleEndian.Uint64(raw[2:]), hash: binary.LittleEndian.Uint64(raw[10:])})
	}
	return out, nil
}

func (cl *serveClient) do(ctx context.Context, cfg *config, f *serveFleet, op serveOp, seq uint64) {
	rep, tr := cfg.rep, cfg.tr
	id := f.session[cl.id][op.Session]
	cur := cl.cycle[op.Session]
	ot := tr.start("op."+op.Kind.String(), 0, seq)
	switch op.Kind {
	case opStep:
		var (
			resp server.StepResponse
			err  error
		)
		dur := tr.timed("kclient.Step", ot.id, seq, func() { resp, err = f.c.Step(ctx, id, serveStepCycles) })
		cl.requests++
		if rep.op(err) && rep.check(resp.Ran == serveStepCycles && resp.Cycle == cur+serveStepCycles && resp.Stopped == "",
			"%s: step ran %d to cycle %d (stopped %q) from %d", id, resp.Ran, resp.Cycle, resp.Stopped, cur) {
			cl.cycle[op.Session] = resp.Cycle
			cl.steps.add(ms(dur))
			if tr.traces(seq) {
				cl.traced.add(ms(dur))
			} else {
				cl.untraced.add(ms(dur))
			}
		}
	case opPeek:
		var (
			resp server.RegsResponse
			err  error
		)
		tr.timed("kclient.Regs", ot.id, seq, func() { resp, err = f.c.Regs(ctx, id, server.RegsRequest{All: true}) })
		cl.requests++
		if rep.op(err) && rep.check(resp.Cycle == cur, "%s: peek at cycle %d, session at %d", id, resp.Cycle, cur) {
			regs := make(map[string]string, len(resp.Values))
			for name, v := range resp.Values {
				regs[name] = v.Hex
			}
			cl.note(op.Session, serveEvent{cycle: cur, hash: regsHash(regs), kind: opPeek})
		}
	case opCheckpoint:
		var (
			resp server.CheckpointResponse
			err  error
		)
		dur := tr.timed("kclient.Checkpoint", ot.id, seq, func() { resp, err = f.c.Checkpoint(ctx, id) })
		cl.requests++
		if rep.op(err) && rep.check(resp.Cycle == cur, "%s: checkpoint at cycle %d, session at %d", id, resp.Cycle, cur) {
			cl.ckpt.add(ms(dur))
			cl.record(rep, id, op.Session, cur, resp.Digest, opCheckpoint)
		}
	case opFork:
		var (
			child server.SessionInfo
			err   error
		)
		dur := tr.timed("kclient.Fork", ot.id, seq, func() { child, err = f.c.Fork(ctx, id) })
		cl.requests++
		if rep.op(err) && rep.check(child.Cycle == cur, "%s: fork at cycle %d, session at %d", id, child.Cycle, cur) {
			cl.fork.add(ms(dur))
			cl.record(rep, id, op.Session, cur, child.Digest, opFork)
			tr.timed("kclient.Delete", ot.id, seq, func() { err = f.c.Delete(ctx, child.ID) })
			cl.requests++
			rep.op(err)
		}
	}
	ot.stop()
}

func runServe(ctx context.Context, cfg *config) error {
	rep := cfg.rep
	// The first set-up's fleet is the one the timed phase loads. After each
	// round the timed phase sets up a spare fleet and tears it down, so
	// setup_s, the median, meets the same host as the requests.
	var setups []float64
	setup := func(i int) (*serveFleet, string, error) {
		dir := filepath.Join(cfg.tmp, fmt.Sprintf("setup%d", i))
		runtime.GC() // each set-up starts from a collected heap
		start := time.Now()
		f, err := serveSetup(ctx, cfg, dir)
		if err == nil {
			setups = append(setups, time.Since(start).Seconds())
		}
		return f, dir, err
	}
	f, _, err := setup(0)
	if err != nil {
		return err
	}
	defer f.close()

	// Timed phase: in each round both clients send serveRoundOps requests
	// of their seeded streams, each waiting for its replies.
	clients := make([]*serveClient, serveClients)
	for i := range clients {
		log, err := os.Create(filepath.Join(cfg.tmp, fmt.Sprintf("client%d.events", i)))
		if err != nil {
			return err
		}
		defer log.Close()
		clients[i] = &serveClient{id: i, stream: newOpStream(cfg.seed, i), log: log, w: bufio.NewWriter(log)}
	}
	gc0 := gcPause()
	var loaded time.Duration // time spent serving requests
	more := cfg.budget.more()
	for round := 0; more(round); round++ {
		start := time.Now()
		var wg sync.WaitGroup
		for _, cl := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Operation ids are unique across clients and alternate in
				// parity, so a traced run traces every other request.
				for i := 0; i < serveRoundOps; i++ {
					cl.do(ctx, cfg, f, cl.stream.next(), uint64(cl.id)<<32|uint64(cl.sent))
					cl.sent++
				}
			}()
		}
		wg.Wait()
		loaded += time.Since(start)
		spare, dir, err := setup(round + 1)
		if err != nil {
			return err
		}
		spare.close()
		rep.op(os.RemoveAll(dir))
	}
	rep.set("gc.pause_ms", ms(gcPause()-gc0))
	rep.set("setup_s", median(setups))
	rep.set("live_heap_mb", liveHeapMB())

	// cycles_per_s is the step stream's median rate, as every workload's
	// cells report it. The whole mix's throughput is per layer
	// (serve.requests_per_s): checkpoints and forks wait on fsync, whose
	// latency on a shared disk swung it by up to 40% between runs of the
	// same code.
	var steps, traced, untraced, ckpt, fork hist
	requests := 0
	for _, cl := range clients {
		steps.merge(&cl.steps)
		traced.merge(&cl.traced)
		untraced.merge(&cl.untraced)
		ckpt.merge(&cl.ckpt)
		fork.merge(&cl.fork)
		requests += cl.requests
	}
	rep.set("cycles_per_s", serveStepCycles/(steps.quantile(0.5)/1e3))
	rep.set("serve.step_p50_ms", steps.quantile(0.5))
	rep.set("serve.step_p90_ms", steps.quantile(0.9))
	rep.set("serve.step_p99_ms", steps.quantile(0.99))
	rep.set("serve.requests_per_s", float64(requests)/loaded.Seconds())
	rep.set("server.checkpoint_ms", ckpt.quantile(0.5))
	rep.set("server.fork_ms", fork.quantile(0.5))
	if traced.n > 0 && untraced.n > 0 {
		rep.set("trace.overhead_pct", 100*(traced.quantile(0.5)/untraced.quantile(0.5)-1))
	}

	if cfg.traced {
		if err := serveProbes(ctx, cfg, f, clients[0]); err != nil {
			return err
		}
	}

	// Counters from every daemon's /metrics.
	var m server.Metrics
	for _, h := range f.hs[:len(f.srvs)] {
		bm, err := kclient.New(h.url).Metrics(ctx)
		if !rep.op(err) {
			continue
		}
		m.Checkpoints += bm.Checkpoints
		m.Forks += bm.Forks
		m.LazyForks += bm.LazyForks
		m.Shed += bm.Shed
		m.Evictions += bm.Evictions
	}
	rep.set("server.checkpoints", float64(m.Checkpoints))
	rep.set("server.forks", float64(m.Forks))
	rep.set("server.lazy_forks", float64(m.LazyForks))
	rep.set("server.shed", float64(m.Shed))
	rep.check(m.Evictions == 0 && m.Shed == 0, "fleet evicted %d sessions and shed %d requests", m.Evictions, m.Shed)

	// Oracle: every session's observations and final state against an
	// in-process replay of its step sequence.
	for _, cl := range clients {
		for s := 0; s < servePerClient; s++ {
			id := f.session[cl.id][s]
			info, err := f.c.Info(ctx, id)
			if rep.op(err) {
				rep.check(info.Cycle == cl.cycle[s], "%s: at cycle %d, driver stepped it to %d", id, info.Cycle, cl.cycle[s])
				cl.record(rep, id, s, cl.cycle[s], info.Digest, opStep)
			}
		}
		evs, err := cl.events()
		if err != nil {
			return err
		}
		for s, ev := range evs {
			if err := serveReplay(cfg, f.session[cl.id][s], ev); err != nil {
				return err
			}
		}
	}
	return nil
}

// serveReplay steps a fresh in-process collatz engine through a session's
// observations (in cycle order) and checks each one.
func serveReplay(cfg *config, id string, evs []serveEvent) error {
	bm, _ := bench.Lookup("collatz")
	e, err := cuttlesim.New(bm.New().Design, cuttlesim.Options{Level: cuttlesim.LStatic, Backend: cuttlesim.Closure})
	if err != nil {
		return err
	}
	for _, ev := range evs {
		sim.Run(e, sim.NopBench{}, ev.cycle-e.CycleCount())
		want := sim.StateDigest(e)
		if ev.kind == opPeek {
			regs := make(map[string]string)
			for _, r := range e.Design().Registers {
				regs[r.Name] = server.FromBits(e.Reg(r.Name)).Hex
			}
			want = regsHash(regs)
		}
		cfg.rep.check(ev.hash == want, "%s: %s at cycle %d reads %016x, replay %016x", id, ev.kind, ev.cycle, ev.hash, want)
	}
	return nil
}

// serveProbes splits one idle routed step into its layers by timing the
// same request at successively lower entry points, interleaved so drift
// hits all alike: through the router, straight to the owning daemon over
// loopback, into the daemon's handler in process, and the engine alone.
// The client's JSON work is timed on its own. Differences of the medians
// telescope, so the layers add up to the routed step exactly.
func serveProbes(ctx context.Context, cfg *config, f *serveFleet, cl *serveClient) error {
	rep, tr := cfg.rep, cfg.tr
	const s = 0
	id := f.session[cl.id][s]
	owner := -1
	for i, h := range f.hs[:len(f.srvs)] {
		list, err := kclient.New(h.url).List(ctx)
		if err != nil {
			return err
		}
		for _, info := range list {
			if info.ID == id {
				owner = i
			}
		}
	}
	if owner < 0 {
		return fmt.Errorf("session %s has no owner", id)
	}
	direct := kclient.New(f.hs[owner].url)
	handler := f.srvs[owner].Handler()
	body, _ := json.Marshal(server.StepRequest{Cycles: serveStepCycles})
	bm, _ := bench.Lookup("collatz")
	eng, err := cuttlesim.New(bm.New().Design, cuttlesim.Options{Level: cuttlesim.LStatic, Backend: cuttlesim.Closure})
	if err != nil {
		return err
	}
	var routedL, directL, inprocL, engineL, jsonL []float64
	var lastBody []byte
	step := func(c *kclient.Client, name string) float64 {
		var (
			resp server.StepResponse
			err  error
		)
		dur := tr.timed(name, 0, 0, func() { resp, err = c.Step(ctx, id, serveStepCycles) })
		if rep.op(err) {
			cl.cycle[s] = resp.Cycle
		}
		return us(dur)
	}
	for i := 0; i < 400; i++ {
		routedL = append(routedL, step(f.c, "kclient.Step(routed)"))
		directL = append(directL, step(direct, "kclient.Step(direct)"))
		var rec *httptest.ResponseRecorder
		dur := tr.timed("server.Handler.ServeHTTP", 0, 0, func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+id+"/step", bytes.NewReader(body))
			rec = httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
		})
		var resp server.StepResponse
		if rep.op(json.Unmarshal(rec.Body.Bytes(), &resp)) && rep.check(rec.Code == http.StatusOK, "in-process step: status %d", rec.Code) {
			cl.cycle[s] = resp.Cycle
		}
		inprocL = append(inprocL, us(dur))
		lastBody = rec.Body.Bytes()
		engineL = append(engineL, us(tr.timed("cuttlesim.step64", 0, 0, func() {
			sim.RunContext(ctx, eng, nil, serveStepCycles)
		})))
		jsonL = append(jsonL, us(tr.timed("kclient.json", 0, 0, func() {
			var r server.StepResponse
			if _, err := json.Marshal(server.StepRequest{Cycles: serveStepCycles}); err == nil {
				_ = json.Unmarshal(lastBody, &r)
			}
		})))
	}
	routed, dir, inproc, engine, js := median(routedL), median(directL), median(inprocL), median(engineL), median(jsonL)
	rep.set("serve.routed_step_us", routed)
	rep.set("router.hop_us", routed-dir)
	rep.set("http.loopback_us", dir-inproc-js)
	rep.set("kclient.json_us", js)
	rep.set("server.handler_us", inproc-engine)
	rep.set("cuttlesim.step64_us", engine)
	return nil
}

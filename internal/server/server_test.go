package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cuttlego/internal/bench"
	"cuttlego/internal/cuttlesim"
	"cuttlego/internal/kclient"
	"cuttlego/internal/server"
	"cuttlego/internal/sim"
)

// gcdSrc is a self-driving design with a natural terminal condition, handy
// for conditional-breakpoint tests.
const gcdSrc = `design gcd

register a    : bits<16> init 16'd1071
register b    : bits<16> init 16'd462
register done : bits<1>

rule swap:
    guard done.rd0() == 1'd0
    let va := a.rd0()
    let vb := b.rd0()
    guard va <u vb
    a.wr0(vb)
    b.wr0(va)

rule subtract:
    guard done.rd0() == 1'd0
    let va := a.rd1()
    let vb := b.rd1()
    if (vb == 16'd0) | (va == vb) {
        done.wr0(1'd1)
    } else {
        if vb <u va {
            a.wr1(va - vb)
        } else {
            pass
        }
    }

schedule: swap subtract
`

func newTestDaemon(t *testing.T, cfg server.Config) (*server.Server, *kclient.Client) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = srv.Close() })
	return srv, kclient.New(ts.URL)
}

// referenceDigest runs a catalogue design in-process for n cycles on the
// daemon's default engine and returns the hex state digest.
func referenceDigest(t *testing.T, catalog string, n uint64) string {
	t.Helper()
	bm, ok := bench.Lookup(catalog)
	if !ok {
		t.Fatalf("no catalogue design %q", catalog)
	}
	inst := bm.New()
	eng, err := cuttlesim.New(inst.Design, cuttlesim.Options{
		Level: cuttlesim.LStatic, Backend: cuttlesim.Closure, Profile: true,
	})
	if err != nil {
		t.Fatalf("cuttlesim.New: %v", err)
	}
	if ran := sim.Run(eng, inst.Bench, n); ran != n {
		t.Fatalf("reference run stopped at %d of %d cycles", ran, n)
	}
	return fmt.Sprintf("%016x", sim.StateDigest(eng))
}

func TestCreateStepMatchesInProcess(t *testing.T) {
	_, c := newTestDaemon(t, server.Config{})
	ctx := context.Background()
	info, err := c.Create(ctx, server.CreateRequest{Catalog: "collatz"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if !info.Durable {
		t.Fatalf("collatz session should be durable: %+v", info)
	}
	step, err := c.Step(ctx, info.ID, 500)
	if err != nil {
		t.Fatalf("step: %v", err)
	}
	if step.Ran != 500 || step.Cycle != 500 || step.Stopped != "" {
		t.Fatalf("step = %+v, want 500 clean cycles", step)
	}
	got, err := c.Info(ctx, info.ID)
	if err != nil {
		t.Fatalf("info: %v", err)
	}
	if want := referenceDigest(t, "collatz", 500); got.Digest != want {
		t.Fatalf("remote digest %s != in-process %s", got.Digest, want)
	}
}

// TestSessionDurability is the acceptance end-to-end: create → step →
// checkpoint → daemon "restart" (new Server over the same store dir) →
// restore → step, with a final digest identical to an uninterrupted
// in-process run.
func TestSessionDurability(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	srvA, cA := newTestDaemon(t, server.Config{StoreDir: dir})
	info, err := cA.Create(ctx, server.CreateRequest{Catalog: "collatz"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := cA.Step(ctx, info.ID, 100); err != nil {
		t.Fatalf("step: %v", err)
	}
	ckpt, err := cA.Checkpoint(ctx, info.ID)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if ckpt.Checkpoint != "c100" || ckpt.Cycle != 100 {
		t.Fatalf("checkpoint = %+v, want c100", ckpt)
	}
	if err := srvA.Close(); err != nil {
		t.Fatalf("close daemon A: %v", err)
	}

	_, cB := newTestDaemon(t, server.Config{StoreDir: dir})
	restored, err := cB.Resurrect(ctx, info.ID, ckpt.Checkpoint)
	if err != nil {
		t.Fatalf("resurrect: %v", err)
	}
	if restored.ID != info.ID || restored.Cycle != 100 || !restored.Restored {
		t.Fatalf("resurrected = %+v, want id %s at cycle 100", restored, info.ID)
	}
	if restored.Digest != ckpt.Digest {
		t.Fatalf("resurrected digest %s != checkpoint digest %s", restored.Digest, ckpt.Digest)
	}
	if _, err := cB.Step(ctx, info.ID, 60); err != nil {
		t.Fatalf("step after restore: %v", err)
	}
	got, err := cB.Info(ctx, info.ID)
	if err != nil {
		t.Fatalf("info: %v", err)
	}
	if want := referenceDigest(t, "collatz", 160); got.Digest != want {
		t.Fatalf("post-restore digest %s != uninterrupted in-process %s", got.Digest, want)
	}
}

// TestLazyResurrect drives a stored session by id without an explicit
// resurrect call: lookup transparently reloads it.
func TestLazyResurrect(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	srvA, cA := newTestDaemon(t, server.Config{StoreDir: dir})
	info, err := cA.Create(ctx, server.CreateRequest{Catalog: "fir"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := cA.Step(ctx, info.ID, 200); err != nil {
		t.Fatalf("step: %v", err)
	}
	if _, err := cA.Checkpoint(ctx, info.ID); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := srvA.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	_, cB := newTestDaemon(t, server.Config{StoreDir: dir})
	step, err := cB.Step(ctx, info.ID, 50)
	if err != nil {
		t.Fatalf("step on resurrected id: %v", err)
	}
	if step.Cycle != 250 {
		t.Fatalf("cycle = %d, want 250", step.Cycle)
	}
	got, err := cB.Info(ctx, info.ID)
	if err != nil {
		t.Fatalf("info: %v", err)
	}
	if want := referenceDigest(t, "fir", 250); got.Digest != want {
		t.Fatalf("digest %s != in-process %s", got.Digest, want)
	}
}

// TestRestartDoesNotReuseStoredIDs: a daemon restarted over an existing
// store must seed its id counter past every stored session — otherwise the
// first session it creates reuses a stored id, its checkpoints clobber the
// old session's durable state, and DELETE destroys the wrong session.
func TestRestartDoesNotReuseStoredIDs(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	srvA, cA := newTestDaemon(t, server.Config{StoreDir: dir})
	old, err := cA.Create(ctx, server.CreateRequest{Catalog: "collatz"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := cA.Step(ctx, old.ID, 100); err != nil {
		t.Fatalf("step: %v", err)
	}
	if _, err := cA.Checkpoint(ctx, old.ID); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := srvA.Close(); err != nil {
		t.Fatalf("close daemon A: %v", err)
	}

	_, cB := newTestDaemon(t, server.Config{StoreDir: dir})
	fresh, err := cB.Create(ctx, server.CreateRequest{Catalog: "fir"})
	if err != nil {
		t.Fatalf("create after restart: %v", err)
	}
	if fresh.ID == old.ID {
		t.Fatalf("restarted daemon minted id %s colliding with stored session", fresh.ID)
	}
	// Checkpointing the new session must not disturb the old one's store.
	if _, err := cB.Checkpoint(ctx, fresh.ID); err != nil {
		t.Fatalf("checkpoint new session: %v", err)
	}
	restored, err := cB.Resurrect(ctx, old.ID, "")
	if err != nil {
		t.Fatalf("resurrect stored session: %v", err)
	}
	if restored.Cycle != 100 || restored.Design != old.Design {
		t.Fatalf("resurrected = %+v, want design %s at cycle 100", restored, old.Design)
	}
}

// TestConcurrentLazyResurrect hammers one stored id from many goroutines at
// once: the resurrection race must admit exactly one rebuilt session, so
// every step lands on that winner and none of its progress is discarded by
// a losing duplicate overwriting the table entry.
func TestConcurrentLazyResurrect(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	srvA, cA := newTestDaemon(t, server.Config{StoreDir: dir})
	info, err := cA.Create(ctx, server.CreateRequest{Catalog: "collatz"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := cA.Step(ctx, info.ID, 100); err != nil {
		t.Fatalf("step: %v", err)
	}
	if _, err := cA.Checkpoint(ctx, info.ID); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := srvA.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	_, cB := newTestDaemon(t, server.Config{StoreDir: dir})
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cB.Step(ctx, info.ID, 10); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent step: %v", err)
	}
	got, err := cB.Info(ctx, info.ID)
	if err != nil {
		t.Fatalf("info: %v", err)
	}
	if want := uint64(100 + workers*10); got.Cycle != want {
		t.Fatalf("cycle = %d, want %d (steps landed on a discarded duplicate session)", got.Cycle, want)
	}
}

// TestConcurrentSessions is the acceptance concurrency run: at least 8
// parallel sessions spanning the engine matrix, each stepped in chunks and
// compared against its in-process reference (run under -race in CI).
func TestConcurrentSessions(t *testing.T) {
	_, c := newTestDaemon(t, server.Config{})
	ctx := context.Background()
	configs := []server.CreateRequest{
		{Catalog: "collatz"},
		{Catalog: "collatz", Level: "activity"},
		{Catalog: "collatz", Backend: "bytecode"},
		{Catalog: "collatz", Engine: "interp"},
		{Catalog: "collatz", Engine: "rtlsim"},
		{Catalog: "fir"},
		{Catalog: "fir", Engine: "rtlsim", Optimize: true},
		{Catalog: "fft"},
		{Catalog: "fft", Engine: "interp"},
		{Catalog: "idle"},
		{Catalog: "fft", Level: "activity"},
		{Catalog: "fft", Engine: "rtlsim", Optimize: true},
	}
	const total = 240
	want := map[string]string{}
	for _, req := range configs {
		if _, ok := want[req.Catalog]; !ok {
			want[req.Catalog] = referenceDigest(t, req.Catalog, total)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(configs))
	for i, req := range configs {
		wg.Add(1)
		go func(i int, req server.CreateRequest) {
			defer wg.Done()
			info, err := c.Create(ctx, req)
			if err != nil {
				errs <- fmt.Errorf("session %d create: %w", i, err)
				return
			}
			for done := uint64(0); done < total; {
				chunk := uint64(60)
				if total-done < chunk {
					chunk = total - done
				}
				step, err := c.Step(ctx, info.ID, chunk)
				if err != nil {
					errs <- fmt.Errorf("session %d step: %w", i, err)
					return
				}
				done += step.Ran
			}
			got, err := c.Info(ctx, info.ID)
			if err != nil {
				errs <- fmt.Errorf("session %d info: %w", i, err)
				return
			}
			if got.Cycle != total || got.Digest != want[req.Catalog] {
				errs <- fmt.Errorf("session %d (%+v): cycle %d digest %s, want %d %s",
					i, req, got.Cycle, got.Digest, total, want[req.Catalog])
			}
		}(i, req)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	sessions, err := c.List(ctx)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(sessions) != len(configs) {
		t.Fatalf("listed %d sessions, want %d", len(sessions), len(configs))
	}
}

// TestWorkersFieldBuildsSequentialEngine drives the workers field over the
// wire. The intra-design pools it once selected are retired, so every width
// >= 0 builds the sequential engine: the session reports the sequential
// registry name and lands on the sequential reference digest. A negative
// width is still refused with 400.
func TestWorkersFieldBuildsSequentialEngine(t *testing.T) {
	_, c := newTestDaemon(t, server.Config{})
	ctx := context.Background()
	want := referenceDigest(t, "fft", 100)
	for _, tc := range []struct {
		req    server.CreateRequest
		engine string
	}{
		{server.CreateRequest{Catalog: "fft", Workers: 2}, "cuttlesim(static,closure)"},
		{server.CreateRequest{Catalog: "fft", Backend: "bytecode", Workers: 4}, "cuttlesim(static,bytecode)"},
		{server.CreateRequest{Catalog: "fft", Engine: "rtlsim", Workers: 4}, "rtlsim(koika,fused)"},
		{server.CreateRequest{Catalog: "fft", Engine: "interp", Workers: 2}, "interp"},
		{server.CreateRequest{Catalog: "fft", Level: "naive", Workers: 2}, "cuttlesim(naive,closure)"},
		{server.CreateRequest{Catalog: "fft", Engine: "rtlsim", Backend: "switch", Workers: 2}, "rtlsim(koika,switch)"},
	} {
		info, err := c.Create(ctx, tc.req)
		if err != nil {
			t.Fatalf("create %+v: %v", tc.req, err)
		}
		if info.Engine != tc.engine {
			t.Errorf("%+v: engine %q, want %q", tc.req, info.Engine, tc.engine)
		}
		if _, err := c.Step(ctx, info.ID, 100); err != nil {
			t.Fatalf("step %+v: %v", tc.req, err)
		}
		got, err := c.Info(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Digest != want {
			t.Errorf("%+v: digest %s, want %s", tc.req, got.Digest, want)
		}
		if err := c.Delete(ctx, info.ID); err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.Create(ctx, server.CreateRequest{Catalog: "fft", Workers: -1})
	var apiErr *kclient.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Errorf("create with workers -1: %v, want a 400", err)
	}
}

// TestRemoteConditionalBreak attaches a conditional breakpoint through the
// remote session path and checks the run stops on it.
func TestRemoteConditionalBreak(t *testing.T) {
	_, c := newTestDaemon(t, server.Config{})
	ctx := context.Background()
	info, err := c.Create(ctx, server.CreateRequest{Source: gcdSrc})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := c.Break(ctx, info.ID, server.BreakRequest{Cond: "done.rd0() == 1'd1"}); err != nil {
		t.Fatalf("break: %v", err)
	}
	step, err := c.Step(ctx, info.ID, 10000)
	if err != nil {
		t.Fatalf("step: %v", err)
	}
	if step.Ran == 0 || step.Ran >= 10000 || !strings.Contains(step.Stopped, "done.rd0()") {
		t.Fatalf("step = %+v, want an early conditional stop", step)
	}
	regs, err := c.Regs(ctx, info.ID, server.RegsRequest{Get: []string{"a", "done"}})
	if err != nil {
		t.Fatalf("regs: %v", err)
	}
	if regs.Values["done"].Hex != "1" {
		t.Fatalf("done = %+v, want 1", regs.Values["done"])
	}
	// gcd(1071, 462) = 21.
	if regs.Values["a"].Hex != "15" {
		t.Fatalf("a = %+v, want 0x15", regs.Values["a"])
	}
	// Clearing the breakpoint lets the run complete.
	if err := c.Break(ctx, info.ID, server.BreakRequest{Clear: true}); err != nil {
		t.Fatalf("clear: %v", err)
	}
	step, err = c.Step(ctx, info.ID, 100)
	if err != nil || step.Ran != 100 || step.Stopped != "" {
		t.Fatalf("step after clear = %+v, %v", step, err)
	}
}

func TestRegsPokeRoundTrip(t *testing.T) {
	_, c := newTestDaemon(t, server.Config{})
	ctx := context.Background()
	info, err := c.Create(ctx, server.CreateRequest{Source: gcdSrc})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	// Poke a fresh problem into the registers and let it run to the fixpoint.
	_, err = c.Regs(ctx, info.ID, server.RegsRequest{Set: map[string]server.RegValue{
		"a": {Width: 16, Hex: "30"}, // 48
		"b": {Width: 16, Hex: "12"}, // 18
	}})
	if err != nil {
		t.Fatalf("poke: %v", err)
	}
	if _, err := c.Step(ctx, info.ID, 200); err != nil {
		t.Fatalf("step: %v", err)
	}
	regs, err := c.Regs(ctx, info.ID, server.RegsRequest{All: true})
	if err != nil {
		t.Fatalf("peek: %v", err)
	}
	if regs.Values["a"].Hex != "6" || regs.Values["done"].Hex != "1" {
		t.Fatalf("gcd(48, 18): regs = %+v, want a=6 done=1", regs.Values)
	}
}

func TestProfileEndpoint(t *testing.T) {
	_, c := newTestDaemon(t, server.Config{})
	ctx := context.Background()
	info, err := c.Create(ctx, server.CreateRequest{Catalog: "collatz"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := c.Step(ctx, info.ID, 100); err != nil {
		t.Fatalf("step: %v", err)
	}
	prof, err := c.Profile(ctx, info.ID)
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	if prof.Cycle != 100 || len(prof.Rules) == 0 {
		t.Fatalf("profile = %+v, want rules at cycle 100", prof)
	}
	var attempts uint64
	for _, r := range prof.Rules {
		attempts += r.Attempts
	}
	if attempts == 0 {
		t.Fatalf("profile shows zero attempts: %+v", prof.Rules)
	}
}

func TestForkAndReverse(t *testing.T) {
	_, c := newTestDaemon(t, server.Config{})
	ctx := context.Background()
	info, err := c.Create(ctx, server.CreateRequest{Catalog: "collatz"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := c.Step(ctx, info.ID, 100); err != nil {
		t.Fatalf("step: %v", err)
	}
	base, err := c.Info(ctx, info.ID)
	if err != nil {
		t.Fatalf("info: %v", err)
	}
	fork, err := c.Fork(ctx, info.ID)
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	if fork.ID == info.ID || fork.Cycle != 100 || fork.Digest != base.Digest {
		t.Fatalf("fork = %+v, want a distinct session matching %+v", fork, base)
	}
	// The fork advances independently of its parent.
	if _, err := c.Step(ctx, fork.ID, 50); err != nil {
		t.Fatalf("step fork: %v", err)
	}
	parent, err := c.Info(ctx, info.ID)
	if err != nil || parent.Cycle != 100 {
		t.Fatalf("parent moved: %+v, %v", parent, err)
	}
	// Reverse the parent 30 cycles, then re-run: same digest as before.
	back, err := c.Reverse(ctx, info.ID, 30)
	if err != nil {
		t.Fatalf("reverse: %v", err)
	}
	if back.Cycle != 70 {
		t.Fatalf("reverse landed at %d, want 70", back.Cycle)
	}
	if _, err := c.Step(ctx, info.ID, 30); err != nil {
		t.Fatalf("re-step: %v", err)
	}
	again, err := c.Info(ctx, info.ID)
	if err != nil {
		t.Fatalf("info: %v", err)
	}
	if again.Digest != base.Digest {
		t.Fatalf("replayed digest %s != original %s", again.Digest, base.Digest)
	}
}

func TestTraceStreams(t *testing.T) {
	_, c := newTestDaemon(t, server.Config{})
	ctx := context.Background()
	info, err := c.Create(ctx, server.CreateRequest{Source: gcdSrc})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	var events []server.TraceEvent
	err = c.TraceEvents(ctx, info.ID, 20, func(ev server.TraceEvent) error {
		events = append(events, ev)
		return nil
	})
	if err != nil {
		t.Fatalf("trace events: %v", err)
	}
	if len(events) != 20 {
		t.Fatalf("got %d events, want 20", len(events))
	}
	for i, ev := range events {
		if ev.Cycle != uint64(i+1) {
			t.Fatalf("event %d at cycle %d, want %d", i, ev.Cycle, i+1)
		}
	}
	if len(events[0].Fired) == 0 || len(events[0].Changed) == 0 {
		t.Fatalf("first event should fire rules and change registers: %+v", events[0])
	}
	// VCD stream: header plus one timestep per value-changing cycle (use a
	// design that never quiesces, so every cycle changes something).
	busy, err := c.Create(ctx, server.CreateRequest{Catalog: "collatz"})
	if err != nil {
		t.Fatalf("create collatz: %v", err)
	}
	body, err := c.Trace(ctx, busy.ID, 10, "vcd")
	if err != nil {
		t.Fatalf("trace vcd: %v", err)
	}
	defer body.Close()
	data, err := io.ReadAll(body)
	if err != nil {
		t.Fatalf("read vcd: %v", err)
	}
	text := string(data)
	if !strings.Contains(text, "$enddefinitions") {
		t.Fatalf("vcd stream missing header:\n%s", text)
	}
	steps := 0
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "#") {
			steps++
		}
	}
	if steps < 10 {
		t.Fatalf("vcd stream has %d timesteps, want >= 10:\n%s", steps, text)
	}
	// Traces advance their sessions like any other step.
	got, err := c.Info(ctx, info.ID)
	if err != nil || got.Cycle != 20 {
		t.Fatalf("cycle after events trace = %+v, %v; want 20", got, err)
	}
	got, err = c.Info(ctx, busy.ID)
	if err != nil || got.Cycle != 10 {
		t.Fatalf("cycle after vcd trace = %+v, %v; want 10", got, err)
	}
}

func TestEvictionAndTransparentReload(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	_, c := newTestDaemon(t, server.Config{StoreDir: dir, MaxSessions: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		info, err := c.Create(ctx, server.CreateRequest{Catalog: "collatz"})
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		if _, err := c.Step(ctx, info.ID, uint64(10*(i+1))); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		ids = append(ids, info.ID)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if m.Sessions != 2 || m.Evictions == 0 {
		t.Fatalf("metrics = %+v, want 2 live sessions and an eviction", m)
	}
	// Every session, evicted or not, is still addressable at its cycle.
	for i, id := range ids {
		got, err := c.Info(ctx, id)
		if err != nil {
			t.Fatalf("info %s: %v", id, err)
		}
		if want := uint64(10 * (i + 1)); got.Cycle != want {
			t.Fatalf("session %s at cycle %d, want %d", id, got.Cycle, want)
		}
	}
}

func TestNotDurableIs409(t *testing.T) {
	_, c := newTestDaemon(t, server.Config{StoreDir: t.TempDir()})
	ctx := context.Background()
	info, err := c.Create(ctx, server.CreateRequest{Catalog: "rv32i"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if info.Durable {
		t.Fatalf("rv32i carries a testbench; session must not be durable: %+v", info)
	}
	for name, call := range map[string]func() error{
		"checkpoint": func() error { _, err := c.Checkpoint(ctx, info.ID); return err },
		"fork":       func() error { _, err := c.Fork(ctx, info.ID); return err },
		"reverse":    func() error { _, err := c.Reverse(ctx, info.ID, 1); return err },
	} {
		err := call()
		var apiErr *kclient.APIError
		if !errAs(err, &apiErr) || apiErr.Status != http.StatusConflict {
			t.Errorf("%s on non-durable session: got %v, want 409", name, err)
		}
	}
	// It still steps fine.
	if _, err := c.Step(ctx, info.ID, 100); err != nil {
		t.Fatalf("step: %v", err)
	}
}

func errAs(err error, target any) bool {
	if err == nil {
		return false
	}
	switch t := target.(type) {
	case **kclient.APIError:
		e, ok := err.(*kclient.APIError)
		if ok {
			*t = e
		}
		return ok
	}
	return false
}

// TestHTTPStatusContract pins the explicit 4xx mapping: client mistakes
// never surface as 500s.
func TestHTTPStatusContract(t *testing.T) {
	srv, err := server.New(server.Config{MaxBody: 2048})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	h := srv.Handler()

	post := func(path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr
	}
	get := func(path string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr
	}

	// One live session to exercise per-session validation.
	rr := post("/v1/sessions", `{"catalog":"collatz"}`)
	if rr.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rr.Code, rr.Body)
	}
	var info server.SessionInfo
	if err := json.Unmarshal(rr.Body.Bytes(), &info); err != nil {
		t.Fatalf("create body: %v", err)
	}

	cases := []struct {
		name string
		run  func() *httptest.ResponseRecorder
		want int
	}{
		{"malformed json", func() *httptest.ResponseRecorder {
			return post("/v1/sessions", `{"catalog":`)
		}, http.StatusBadRequest},
		{"unknown field", func() *httptest.ResponseRecorder {
			return post("/v1/sessions", `{"catalogue":"collatz"}`)
		}, http.StatusBadRequest},
		{"neither source nor catalog", func() *httptest.ResponseRecorder {
			return post("/v1/sessions", `{}`)
		}, http.StatusBadRequest},
		{"both source and catalog", func() *httptest.ResponseRecorder {
			return post("/v1/sessions", `{"source":"design x","catalog":"collatz"}`)
		}, http.StatusBadRequest},
		{"malformed design", func() *httptest.ResponseRecorder {
			return post("/v1/sessions", `{"source":"design broken\nregister r bits<4>\n"}`)
		}, http.StatusBadRequest},
		{"unknown catalogue name", func() *httptest.ResponseRecorder {
			return post("/v1/sessions", `{"catalog":"nonesuch"}`)
		}, http.StatusBadRequest},
		{"unknown engine", func() *httptest.ResponseRecorder {
			return post("/v1/sessions", `{"catalog":"collatz","engine":"verilator"}`)
		}, http.StatusBadRequest},
		{"unknown level", func() *httptest.ResponseRecorder {
			return post("/v1/sessions", `{"catalog":"collatz","level":"ludicrous"}`)
		}, http.StatusBadRequest},
		{"oversized body", func() *httptest.ResponseRecorder {
			return post("/v1/sessions", `{"source":"`+strings.Repeat("x", 4096)+`"}`)
		}, http.StatusRequestEntityTooLarge},
		{"unknown session info", func() *httptest.ResponseRecorder {
			return get("/v1/sessions/nonesuch")
		}, http.StatusNotFound},
		{"unknown session step", func() *httptest.ResponseRecorder {
			return post("/v1/sessions/nonesuch/step", `{"cycles":1}`)
		}, http.StatusNotFound},
		{"unknown session delete", func() *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodDelete, "/v1/sessions/nonesuch", nil)
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, req)
			return rr
		}, http.StatusNotFound},
		{"zero cycles", func() *httptest.ResponseRecorder {
			return post("/v1/sessions/"+info.ID+"/step", `{"cycles":0}`)
		}, http.StatusBadRequest},
		{"unknown register", func() *httptest.ResponseRecorder {
			return post("/v1/sessions/"+info.ID+"/regs", `{"get":["nonesuch"]}`)
		}, http.StatusBadRequest},
		{"register width mismatch", func() *httptest.ResponseRecorder {
			return post("/v1/sessions/"+info.ID+"/regs", `{"set":{"n":{"width":4,"hex":"f"}}}`)
		}, http.StatusBadRequest},
		{"bad break expression", func() *httptest.ResponseRecorder {
			return post("/v1/sessions/"+info.ID+"/break", `{"cond":"(((("}`)
		}, http.StatusBadRequest},
		{"bad trace format", func() *httptest.ResponseRecorder {
			return get("/v1/sessions/" + info.ID + "/trace?cycles=5&format=gif")
		}, http.StatusBadRequest},
		{"trace without cycles", func() *httptest.ResponseRecorder {
			return get("/v1/sessions/" + info.ID + "/trace")
		}, http.StatusBadRequest},
		{"restore unknown checkpoint", func() *httptest.ResponseRecorder {
			return post("/v1/sessions/"+info.ID+"/restore", `{"checkpoint":"c999999"}`)
		}, http.StatusBadRequest},
		{"resurrect without store", func() *httptest.ResponseRecorder {
			return post("/v1/resurrect", `{"session":"nonesuch"}`)
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		rr := tc.run()
		if rr.Code != tc.want {
			t.Errorf("%s: status %d, want %d (body: %s)", tc.name, rr.Code, tc.want, rr.Body)
		}
		if rr.Code >= 400 {
			var er server.ErrorResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Errorf("%s: error body is not an ErrorResponse: %s", tc.name, rr.Body)
			}
		}
	}
}

func TestStepTimeoutIsPartialResult(t *testing.T) {
	_, c := newTestDaemon(t, server.Config{StepTimeout: 50 * time.Millisecond})
	ctx := context.Background()
	info, err := c.Create(ctx, server.CreateRequest{Catalog: "collatz"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	step, err := c.Step(ctx, info.ID, 50_000_000)
	if err != nil {
		t.Fatalf("step: %v", err)
	}
	if step.Stopped != "timeout" {
		t.Fatalf("step = %+v, want a timeout stop", step)
	}
	if step.Ran == 0 || step.Ran >= 50_000_000 {
		t.Fatalf("ran %d cycles, want a partial run", step.Ran)
	}
}

func TestMetricsAndHealth(t *testing.T) {
	_, c := newTestDaemon(t, server.Config{})
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	info, err := c.Create(ctx, server.CreateRequest{Catalog: "collatz"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := c.Step(ctx, info.ID, 1000); err != nil {
		t.Fatalf("step: %v", err)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if m.Sessions != 1 || m.TotalCycles < 1000 || m.UptimeSec < 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

// FuzzServerRequest throws arbitrary methods, paths, and bodies at the API
// and requires that nothing surfaces as a 5xx or a panic: every malformed
// input must map to an explicit 4xx.
func FuzzServerRequest(f *testing.F) {
	seeds := []struct {
		method, path, body string
	}{
		{"POST", "/v1/sessions", `{"catalog":"collatz"}`},
		{"POST", "/v1/sessions", `{"source":"design x\nregister r : bits<4>\nschedule:"}`},
		{"GET", "/v1/sessions", ""},
		{"GET", "/healthz", ""},
		{"GET", "/metrics", ""},
		{"POST", "/v1/sessions/s1/step", `{"cycles":10}`},
		{"POST", "/v1/sessions/s1/regs", `{"all":true}`},
		{"POST", "/v1/sessions/s1/break", `{"cond":"n.rd0() == 32'd1"}`},
		{"POST", "/v1/sessions/s1/checkpoint", ""},
		{"POST", "/v1/sessions/../../etc/passwd/step", `{"cycles":1}`},
		{"POST", "/v1/resurrect", `{"session":"../escape"}`},
		{"GET", "/v1/sessions/s1/trace?cycles=3&format=vcd", ""},
		{"DELETE", "/v1/sessions/s1", ""},
		{"PATCH", "/v1/sessions/s1", `{}`},
	}
	for _, s := range seeds {
		f.Add(s.method, s.path, s.body)
	}
	srv, err := server.New(server.Config{
		MaxSessions:   4,
		MaxBody:       16 << 10,
		MaxStepCycles: 10_000,
		StepTimeout:   2 * time.Second,
	})
	if err != nil {
		f.Fatalf("server.New: %v", err)
	}
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, method, path, body string) {
		if !strings.HasPrefix(path, "/") || strings.ContainsAny(path, " \t\r\n#") {
			t.Skip()
		}
		// httptest.NewRequest panics on inputs a real server would reject at
		// the HTTP layer; pre-validate with the error-returning constructor
		// so the fuzzer only explores requests that can reach the mux.
		if _, err := http.NewRequest(method, "http://ksimd.test"+path, nil); err != nil {
			t.Skip()
		}
		req := httptest.NewRequest(method, path, bytes.NewReader([]byte(body)))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code >= 500 {
			t.Fatalf("%s %s with body %q returned %d: %s", method, path, body, rr.Code, rr.Body)
		}
	})
}

// TestTraceStreamIsChunked checks the NDJSON stream arrives incrementally
// (one line per cycle) rather than as a single buffered document.
func TestTraceStreamIsChunked(t *testing.T) {
	_, c := newTestDaemon(t, server.Config{})
	ctx := context.Background()
	info, err := c.Create(ctx, server.CreateRequest{Catalog: "collatz"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	body, err := c.Trace(ctx, info.ID, 5, "events")
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	defer body.Close()
	sc := bufio.NewScanner(body)
	lines := 0
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			lines++
		}
	}
	if lines != 5 {
		t.Fatalf("stream had %d lines, want 5", lines)
	}
}

package dap

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"cuttlego/internal/bench"
	"cuttlego/internal/kclient"
	"cuttlego/internal/router"
	"cuttlego/internal/server"
)

// testClient is a scripted DAP client over one end of a net.Pipe, with the
// adapter serving the other end.
type testClient struct {
	t      *testing.T
	conn   net.Conn
	r      *bufio.Reader
	seq    int
	events []map[string]any // events received while waiting for a response
}

func newTestClient(t *testing.T, backendURL string) *testClient {
	t.Helper()
	serverSide, clientSide := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- Serve(serverSide, kclient.New(backendURL)) }()
	t.Cleanup(func() {
		clientSide.Close()
		serverSide.Close()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("adapter exited with: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("adapter did not exit")
		}
	})
	_ = clientSide.SetDeadline(time.Now().Add(60 * time.Second))
	return &testClient{t: t, conn: clientSide, r: bufio.NewReader(clientSide)}
}

func (c *testClient) send(cmd string, args any) {
	c.t.Helper()
	c.seq++
	raw, err := json.Marshal(args)
	if err != nil {
		c.t.Fatalf("marshal %s args: %v", cmd, err)
	}
	if err := writeMessage(c.conn, request{Seq: c.seq, Type: "request", Command: cmd, Arguments: raw}); err != nil {
		c.t.Fatalf("send %s: %v", cmd, err)
	}
}

func (c *testClient) recv() map[string]any {
	c.t.Helper()
	payload, err := readMessage(c.r)
	if err != nil {
		c.t.Fatalf("read message: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(payload, &m); err != nil {
		c.t.Fatalf("decode message: %v", err)
	}
	return m
}

// roundTrip sends cmd and returns its successful response, queuing any
// events that arrive first.
func (c *testClient) roundTrip(cmd string, args any) map[string]any {
	c.t.Helper()
	c.send(cmd, args)
	for {
		m := c.recv()
		if m["type"] != "response" {
			c.events = append(c.events, m)
			continue
		}
		if m["command"] != cmd {
			c.t.Fatalf("response to %v while waiting for %s", m["command"], cmd)
		}
		if m["success"] != true {
			c.t.Fatalf("%s failed: %v", cmd, m["message"])
		}
		return m
	}
}

// expectFail sends cmd and asserts the adapter rejects it.
func (c *testClient) expectFail(cmd string, args any) string {
	c.t.Helper()
	c.send(cmd, args)
	for {
		m := c.recv()
		if m["type"] != "response" {
			c.events = append(c.events, m)
			continue
		}
		if m["success"] == true {
			c.t.Fatalf("%s unexpectedly succeeded", cmd)
		}
		msg, _ := m["message"].(string)
		return msg
	}
}

// waitEvent returns the next event with the given name, consuming the
// queue first.
func (c *testClient) waitEvent(name string) map[string]any {
	c.t.Helper()
	for i, e := range c.events {
		if e["event"] == name {
			c.events = append(c.events[:i], c.events[i+1:]...)
			return e
		}
	}
	for {
		m := c.recv()
		if m["type"] != "event" {
			c.t.Fatalf("got %v response while waiting for event %s", m["command"], name)
		}
		if m["event"] == name {
			return m
		}
		c.events = append(c.events, m)
	}
}

func body(m map[string]any) map[string]any {
	b, _ := m["body"].(map[string]any)
	return b
}

// stack returns the stack's cycle and the rules its frames name
// ("<rule> @ cycle N", in schedule order), or no rules for the single
// "<design> @ cycle N" frame of a cycle in which no rule fired.
func (c *testClient) stack(design string) (uint64, []string) {
	c.t.Helper()
	resp := c.roundTrip("stackTrace", map[string]any{"threadId": 1})
	frames, _ := body(resp)["stackFrames"].([]any)
	if len(frames) == 0 {
		c.t.Fatalf("stackTrace returned no frames")
	}
	var cycle uint64
	var rules []string
	for _, f := range frames {
		name, _ := f.(map[string]any)["name"].(string)
		var what string
		var at uint64
		if _, err := fmt.Sscanf(name, "%s @ cycle %d", &what, &at); err != nil {
			c.t.Fatalf("frame name %q is not \"<rule or design> @ cycle N\": %v", name, err)
		}
		if len(rules) > 0 && at != cycle {
			c.t.Fatalf("frames name cycles %d and %d", cycle, at)
		}
		cycle = at
		rules = append(rules, what)
	}
	if len(rules) == 1 && rules[0] == design {
		rules = nil
	}
	return cycle, rules
}

// frameCycle returns the cycle the stack frames name.
func (c *testClient) frameCycle() uint64 {
	c.t.Helper()
	cycle, _ := c.stack("")
	return cycle
}

// evaluate runs an expression in the debug console and returns the result.
func (c *testClient) evaluate(expr string) string {
	c.t.Helper()
	resp := c.roundTrip("evaluate", map[string]any{"expression": expr, "context": "repl"})
	res, _ := body(resp)["result"].(string)
	return res
}

// driveAcceptanceScript is the ISSUE's scripted session — attach →
// conditional breakpoint → continue → evaluate (trace query) → stepBack →
// reverseContinue — against whatever URL is in front of the session
// (daemon or fleet router).
func driveAcceptanceScript(t *testing.T, url, sessionID string) {
	c := newTestClient(t, url)

	resp := c.roundTrip("initialize", map[string]any{"adapterID": "kdap"})
	if body(resp)["supportsStepBack"] != true {
		t.Fatalf("initialize capabilities missing stepBack: %v", body(resp))
	}
	c.waitEvent("initialized")

	c.roundTrip("attach", map[string]any{"session": sessionID})

	const cond = "x.rd0() == 32'd1"
	resp = c.roundTrip("setBreakpoints", map[string]any{
		"breakpoints": []map[string]any{{"condition": cond}},
	})
	bps, _ := body(resp)["breakpoints"].([]any)
	if len(bps) != 1 || bps[0].(map[string]any)["verified"] != true {
		t.Fatalf("conditional breakpoint not verified: %v", bps)
	}

	c.roundTrip("configurationDone", nil)
	c.waitEvent("stopped")

	// Continue → the breakpoint fires somewhere past cycle 0.
	c.roundTrip("continue", map[string]any{"threadId": 1})
	ev := c.waitEvent("stopped")
	if body(ev)["reason"] != "breakpoint" {
		t.Fatalf("continue stopped with reason %v, want breakpoint", body(ev)["reason"])
	}
	hit := c.frameCycle()
	if hit == 0 {
		t.Fatalf("breakpoint hit at cycle 0")
	}

	// Variables pane: registers are visible.
	c.roundTrip("threads", nil)
	c.roundTrip("scopes", map[string]any{"frameId": 1})
	resp = c.roundTrip("variables", map[string]any{"variablesReference": 1})
	vars, _ := body(resp)["variables"].([]any)
	seen := map[string]bool{}
	for _, v := range vars {
		seen[v.(map[string]any)["name"].(string)] = true
	}
	if !seen["x"] || !seen["done"] {
		t.Fatalf("variables %v missing x/done", seen)
	}

	// Evaluate: register peek, then a trace query that must agree with
	// where the breakpoint actually stopped.
	if got := c.evaluate("x"); !strings.HasPrefix(got, "0x1 ") {
		t.Fatalf("evaluate x = %q at the x==1 breakpoint", got)
	}
	if got := c.evaluate("first " + cond); got != fmt.Sprintf("cycle %d", hit) {
		t.Fatalf("trace query %q = %q, breakpoint hit cycle %d", cond, got, hit)
	}

	// stepBack: one cycle of reverse execution.
	c.roundTrip("stepBack", map[string]any{"threadId": 1})
	c.waitEvent("stopped")
	if got := c.frameCycle(); got != hit-1 {
		t.Fatalf("stepBack landed on cycle %d, want %d", got, hit-1)
	}

	// reverseContinue: x==1 never held before the hit, so the adapter's
	// "last" query finds nothing and the session rewinds to entry.
	c.roundTrip("reverseContinue", map[string]any{"threadId": 1})
	ev = c.waitEvent("stopped")
	if body(ev)["reason"] != "entry" {
		t.Fatalf("reverseContinue stopped with reason %v, want entry", body(ev)["reason"])
	}
	if got := c.frameCycle(); got != 0 {
		t.Fatalf("reverseContinue landed on cycle %d, want 0", got)
	}

	// Forward again, then reverseContinue onto a condition that held one
	// cycle earlier — the trace query must place the stop, not a rewind.
	c.roundTrip("continue", map[string]any{"threadId": 1})
	c.waitEvent("stopped")
	c.roundTrip("setBreakpoints", map[string]any{
		"breakpoints": []map[string]any{{"condition": "x.rd0() >=u 32'd0"}}, // holds everywhere
	})
	c.roundTrip("reverseContinue", map[string]any{"threadId": 1})
	ev = c.waitEvent("stopped")
	if body(ev)["reason"] != "breakpoint" {
		t.Fatalf("reverseContinue with a holding condition stopped with %v, want breakpoint", body(ev)["reason"])
	}
	if got := c.frameCycle(); got != hit-1 {
		t.Fatalf("reverseContinue stopped at cycle %d, want %d", got, hit-1)
	}

	c.roundTrip("disconnect", nil)
	c.waitEvent("terminated")
}

// firedAt lists, in schedule order, the rules that a "scan fired(r) in
// c..c" trace query reports as committed in the cycle that led to cycle c.
func (c *testClient) firedAt(schedule []string, cycle uint64) []string {
	c.t.Helper()
	var out []string
	for _, r := range schedule {
		got := c.evaluate(fmt.Sprintf("scan fired(%s) in %d..%d", r, cycle, cycle))
		switch got {
		case fmt.Sprintf("1 matching cycles: [%d]", cycle):
			out = append(out, r)
		case "no match":
		default:
			c.t.Fatalf("scan fired(%s) in %d..%d = %q", r, cycle, cycle, got)
		}
	}
	return out
}

// driveRuleScript is the rule-level session: a function breakpoint on a
// collatz rule next to a conditional one, continue to each, reverseContinue
// back to the rule's previous hit, stepBack, and a register poke — with
// the stack checked against trace queries at every stop.
func driveRuleScript(t *testing.T, url, sessionID string) {
	c := newTestClient(t, url)
	bm, _ := bench.Lookup("collatz")
	d := bm.New().Design

	resp := c.roundTrip("initialize", map[string]any{"adapterID": "kdap"})
	if body(resp)["supportsFunctionBreakpoints"] != true || body(resp)["supportsSetVariable"] != true {
		t.Fatalf("initialize capabilities missing function breakpoints or setVariable: %v", body(resp))
	}
	c.waitEvent("initialized")
	c.roundTrip("attach", map[string]any{"session": sessionID})

	// A rule breakpoint is verified; an unknown rule comes back unverified
	// with the daemon's compile error.
	resp = c.roundTrip("setFunctionBreakpoints", map[string]any{
		"breakpoints": []map[string]any{{"name": "restart"}, {"name": "no_such_rule"}},
	})
	bps, _ := body(resp)["breakpoints"].([]any)
	if len(bps) != 2 || bps[0].(map[string]any)["verified"] != true || bps[1].(map[string]any)["verified"] != false {
		t.Fatalf("function breakpoints = %v, want restart verified and no_such_rule not", bps)
	}
	if msg, _ := bps[1].(map[string]any)["message"].(string); !strings.Contains(msg, "no_such_rule") {
		t.Fatalf("unknown rule refused with %q, want the daemon's compile error", msg)
	}
	// Setting conditions afterwards keeps the rule breakpoint armed.
	c.roundTrip("setBreakpoints", map[string]any{
		"breakpoints": []map[string]any{{"condition": "x.rd0() == 32'd1"}},
	})
	c.roundTrip("configurationDone", nil)
	c.waitEvent("stopped")

	stopAt := func(cmd string) (uint64, []string) {
		t.Helper()
		c.roundTrip(cmd, map[string]any{"threadId": 1})
		if ev := c.waitEvent("stopped"); body(ev)["reason"] != "breakpoint" {
			t.Fatalf("%s stopped with reason %v, want breakpoint", cmd, body(ev)["reason"])
		}
		cycle, rules := c.stack(d.Name)
		if want := c.firedAt(d.Schedule, cycle); !slices.Equal(rules, want) {
			t.Fatalf("%s: stack at cycle %d = %v, trace says %v fired", cmd, cycle, rules, want)
		}
		return cycle, rules
	}
	one, _ := stopAt("continue") // x == 1
	if got := c.evaluate("x"); !strings.HasPrefix(got, "0x1 ") {
		t.Fatalf("first stop at cycle %d has x = %q, want the x == 1 condition", one, got)
	}
	hit, rules := stopAt("continue") // restart committed
	if hit <= one || !slices.Contains(rules, "restart") {
		t.Fatalf("second stop at cycle %d with stack %v, want restart after cycle %d", hit, rules, one)
	}
	// Drop the condition: the rule breakpoint alone is left.
	c.roundTrip("setBreakpoints", map[string]any{"breakpoints": []map[string]any{}})
	next, rules := stopAt("continue")
	if next <= hit || !slices.Contains(rules, "restart") {
		t.Fatalf("third stop at cycle %d with stack %v, want restart after cycle %d", next, rules, hit)
	}
	if back, rules := stopAt("reverseContinue"); back != hit || !slices.Contains(rules, "restart") {
		t.Fatalf("reverseContinue stopped at cycle %d with stack %v, want restart's previous hit at %d", back, rules, hit)
	}

	c.roundTrip("stepBack", map[string]any{"threadId": 1})
	c.waitEvent("stopped")
	cycle, rules := c.stack(d.Name)
	if want := c.firedAt(d.Schedule, cycle); cycle != hit-1 || !slices.Equal(rules, want) {
		t.Fatalf("stepBack: stack at cycle %d = %v, want cycle %d with %v", cycle, rules, hit-1, want)
	}

	// setVariable pokes at the register's width and reads back.
	resp = c.roundTrip("setVariable", map[string]any{"variablesReference": 1, "name": "seed", "value": "0x2a"})
	if got := body(resp)["value"]; got != "0x2a (32 bits)" {
		t.Fatalf("setVariable answered %v", got)
	}
	resp = c.roundTrip("variables", map[string]any{"variablesReference": 1})
	vars, _ := body(resp)["variables"].([]any)
	found := false
	for _, v := range vars {
		v := v.(map[string]any)
		found = found || v["name"] == "seed" && v["value"] == "0x2a (32 bits)"
	}
	if !found {
		t.Fatalf("variables after setVariable seed=0x2a: %v", vars)
	}
	c.expectFail("setVariable", map[string]any{"variablesReference": 1, "name": "done", "value": "2"})

	c.roundTrip("disconnect", nil)
	c.waitEvent("terminated")
}

func TestDAPAgainstLocalDaemon(t *testing.T) {
	srv, err := server.New(server.Config{StoreDir: t.TempDir()})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = srv.Close() })
	for _, script := range []func(*testing.T, string, string){driveAcceptanceScript, driveRuleScript} {
		info, err := kclient.New(ts.URL).Create(context.Background(), server.CreateRequest{Catalog: "collatz"})
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		script(t, ts.URL, info.ID)
	}
}

func TestDAPAgainstRoutedFleet(t *testing.T) {
	dir := t.TempDir()
	var specs []string
	for i := 0; i < 2; i++ {
		srv, err := server.New(server.Config{StoreDir: dir})
		if err != nil {
			t.Fatalf("server.New: %v", err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(func() { _ = srv.Close() })
		specs = append(specs, ts.URL)
	}
	rt, err := router.New(router.Config{Backends: specs, StoreDir: dir})
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	rt.Probe()
	t.Cleanup(rt.Close)
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)

	for _, script := range []func(*testing.T, string, string){driveAcceptanceScript, driveRuleScript} {
		info, err := kclient.New(rts.URL).Create(context.Background(), server.CreateRequest{Catalog: "collatz"})
		if err != nil {
			t.Fatalf("create via router: %v", err)
		}
		script(t, rts.URL, info.ID)
	}
}

// TestDAPLaunchOwnsSession: launch creates the session and disconnect
// deletes it; attach must leave sessions alone.
func TestDAPLaunchOwnsSession(t *testing.T) {
	srv, err := server.New(server.Config{StoreDir: t.TempDir()})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = srv.Close() })
	kc := kclient.New(ts.URL)

	c := newTestClient(t, ts.URL)
	c.roundTrip("initialize", nil)
	c.waitEvent("initialized")
	c.expectFail("launch", map[string]any{}) // no design named
	c.roundTrip("launch", map[string]any{"design": "collatz"})
	c.roundTrip("configurationDone", nil)
	c.waitEvent("stopped")
	list, err := kc.List(context.Background())
	if err != nil || len(list) != 1 {
		t.Fatalf("after launch: sessions %v (err %v), want exactly one", list, err)
	}
	c.roundTrip("next", map[string]any{"threadId": 1})
	c.waitEvent("stopped")
	c.roundTrip("disconnect", nil)
	c.waitEvent("terminated")

	deadline := time.Now().Add(5 * time.Second)
	for {
		list, err = kc.List(context.Background())
		if err == nil && len(list) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("launched session was not deleted on disconnect: %v", list)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

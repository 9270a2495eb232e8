// Command kdap-smoke is the CI gate for the Debug Adapter Protocol bridge:
// it builds ksimd and kdap, stands up a two-backend fleet behind a ksimd
// router (all real processes, shared durable store), and drives the
// scripted DAP session — attach → conditional breakpoint → continue →
// evaluate (trace query) → stepBack → reverseContinue, then a function
// breakpoint on a rule → continue to it → reverseContinue back to its
// previous hit — twice: once against a backend daemon directly, once
// against the routed fleet session. A failure anywhere exits 1.
//
// Usage (from the repo root):
//
//	go run ./scripts/kdap-smoke
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"cuttlego/internal/kclient"
	"cuttlego/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "kdap-smoke:", err)
		os.Exit(1)
	}
	fmt.Println("kdap-smoke OK")
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	tmp, err := os.MkdirTemp("", "kdap-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	store := filepath.Join(tmp, "store")

	ksimd := filepath.Join(tmp, "ksimd")
	kdap := filepath.Join(tmp, "kdap")
	for _, b := range [][2]string{{ksimd, "./cmd/ksimd"}, {kdap, "./cmd/kdap"}} {
		build := exec.CommandContext(ctx, "go", "build", "-o", b[0], b[1])
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("building %s: %w", b[1], err)
		}
	}

	// Two backends and a router, all sharing the store.
	var backendURLs []string
	for i := 1; i <= 2; i++ {
		af := filepath.Join(tmp, fmt.Sprintf("addr-b%d", i))
		p, addr, err := startProc(ksimd, af,
			"-addr", "127.0.0.1:0", "-store", store, "-addr-file", af)
		if err != nil {
			return err
		}
		defer p.kill()
		backendURLs = append(backendURLs, "http://"+addr)
	}
	raf := filepath.Join(tmp, "addr-router")
	rp, routerAddr, err := startProc(ksimd, raf,
		"-addr", "127.0.0.1:0", "-store", store, "-addr-file", raf,
		"-router", strings.Join(backendURLs, ","))
	if err != nil {
		return err
	}
	defer rp.kill()
	routerURL := "http://" + routerAddr

	for _, pass := range []struct{ name, url string }{
		{"local backend", backendURLs[0]},
		{"routed fleet", routerURL},
	} {
		if err := dapSession(ctx, kdap, tmp, pass.name, pass.url); err != nil {
			return fmt.Errorf("%s: %w", pass.name, err)
		}
		fmt.Printf("DAP session against %s OK\n", pass.name)
	}
	return nil
}

// dapSession runs the full scripted session through a kdap process
// pointing at url.
func dapSession(ctx context.Context, kdap, tmp, name, url string) error {
	c := kclient.New(url)
	if err := c.Health(ctx); err != nil {
		return fmt.Errorf("health: %w", err)
	}
	info, err := c.Create(ctx, server.CreateRequest{Catalog: "collatz"})
	if err != nil {
		return fmt.Errorf("create: %w", err)
	}

	addrFile := filepath.Join(tmp, "addr-kdap-"+strings.ReplaceAll(name, " ", "-"))
	p, addr, err := startProc(kdap, addrFile, "-url", url, "-listen", "127.0.0.1:0", "-addr-file", addrFile)
	if err != nil {
		return err
	}
	defer p.kill()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("dialing kdap: %w", err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(60 * time.Second))
	d := &dapClient{conn: conn, r: bufio.NewReader(conn)}

	if _, err := d.roundTrip("initialize", map[string]any{"adapterID": "kdap-smoke"}); err != nil {
		return err
	}
	if _, err := d.waitEvent("initialized"); err != nil {
		return err
	}
	if _, err := d.roundTrip("attach", map[string]any{"session": info.ID}); err != nil {
		return err
	}
	const cond = "x.rd0() == 32'd1"
	resp, err := d.roundTrip("setBreakpoints", map[string]any{
		"breakpoints": []map[string]any{{"condition": cond}},
	})
	if err != nil {
		return err
	}
	bps, _ := body(resp)["breakpoints"].([]any)
	if len(bps) != 1 || bps[0].(map[string]any)["verified"] != true {
		return fmt.Errorf("breakpoint not verified: %v", bps)
	}
	if _, err := d.roundTrip("configurationDone", nil); err != nil {
		return err
	}
	if _, err := d.waitEvent("stopped"); err != nil {
		return err
	}

	if _, err := d.roundTrip("continue", map[string]any{"threadId": 1}); err != nil {
		return err
	}
	ev, err := d.waitEvent("stopped")
	if err != nil {
		return err
	}
	if body(ev)["reason"] != "breakpoint" {
		return fmt.Errorf("continue stopped with %v, want breakpoint", body(ev)["reason"])
	}
	hit, _, err := d.stack()
	if err != nil {
		return err
	}
	if hit == 0 {
		return fmt.Errorf("breakpoint claims cycle 0")
	}
	fmt.Printf("  [%s] breakpoint %q hit at cycle %d\n", name, cond, hit)

	// Evaluate: the indexed trace query must agree with the live stop.
	result, err := d.evaluate("first " + cond)
	if err != nil {
		return err
	}
	if result != fmt.Sprintf("cycle %d", hit) {
		return fmt.Errorf("trace query answered %q, breakpoint hit cycle %d", result, hit)
	}
	if result, err = d.evaluate("x"); err != nil || !strings.HasPrefix(result, "0x1 ") {
		return fmt.Errorf("evaluate x = %q (err %v), want 0x1 at the breakpoint", result, err)
	}

	if _, err := d.roundTrip("stepBack", map[string]any{"threadId": 1}); err != nil {
		return err
	}
	if _, err := d.waitEvent("stopped"); err != nil {
		return err
	}
	if cyc, _, err := d.stack(); err != nil || cyc != hit-1 {
		return fmt.Errorf("stepBack landed at cycle %d (err %v), want %d", cyc, err, hit-1)
	}

	if _, err := d.roundTrip("reverseContinue", map[string]any{"threadId": 1}); err != nil {
		return err
	}
	if _, err := d.waitEvent("stopped"); err != nil {
		return err
	}
	if cyc, _, err := d.stack(); err != nil || cyc != 0 {
		return fmt.Errorf("reverseContinue landed at cycle %d (err %v), want 0", cyc, err)
	}
	fmt.Printf("  [%s] stepBack + reverseContinue rewound to cycle 0\n", name)

	// Rule level: swap the condition for a function breakpoint on the
	// rule that starts each collatz run, continue to two of its hits, and
	// reverseContinue back to the first.
	if _, err := d.roundTrip("setBreakpoints", map[string]any{"breakpoints": []any{}}); err != nil {
		return err
	}
	resp, err = d.roundTrip("setFunctionBreakpoints", map[string]any{
		"breakpoints": []map[string]any{{"name": "restart"}},
	})
	if err != nil {
		return err
	}
	if bps, _ := body(resp)["breakpoints"].([]any); len(bps) != 1 || bps[0].(map[string]any)["verified"] != true {
		return fmt.Errorf("function breakpoint not verified: %v", bps)
	}
	var hits []uint64
	for _, cmd := range []string{"continue", "continue", "reverseContinue"} {
		if _, err := d.roundTrip(cmd, map[string]any{"threadId": 1}); err != nil {
			return err
		}
		ev, err := d.waitEvent("stopped")
		if err != nil {
			return err
		}
		if body(ev)["reason"] != "breakpoint" {
			return fmt.Errorf("%s stopped with %v, want breakpoint", cmd, body(ev)["reason"])
		}
		cyc, rules, err := d.stack()
		if err != nil {
			return err
		}
		if !slices.Contains(rules, "restart") {
			return fmt.Errorf("%s stopped at cycle %d with stack %v, want restart in it", cmd, cyc, rules)
		}
		hits = append(hits, cyc)
	}
	if hits[0] == 0 || hits[1] <= hits[0] || hits[2] != hits[0] {
		return fmt.Errorf("restart hits at cycles %v, want two ascending hits and reverseContinue back to the first", hits)
	}
	fmt.Printf("  [%s] function breakpoint restart hit at cycles %d and %d; reverseContinue returned to %d\n",
		name, hits[0], hits[1], hits[2])

	if _, err := d.roundTrip("disconnect", nil); err != nil {
		return err
	}
	return nil
}

// --- minimal DAP client ---

type dapClient struct {
	conn   net.Conn
	r      *bufio.Reader
	seq    int
	events []map[string]any
}

func (d *dapClient) send(cmd string, args any) error {
	d.seq++
	msg := map[string]any{"seq": d.seq, "type": "request", "command": cmd, "arguments": args}
	payload, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(d.conn, "Content-Length: %d\r\n\r\n", len(payload)); err != nil {
		return err
	}
	_, err = d.conn.Write(payload)
	return err
}

func (d *dapClient) recv() (map[string]any, error) {
	length := -1
	for {
		line, err := d.r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			break
		}
		if rest, ok := strings.CutPrefix(line, "Content-Length:"); ok {
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%d", &length); err != nil {
				return nil, fmt.Errorf("bad Content-Length %q", rest)
			}
		}
	}
	if length < 0 {
		return nil, fmt.Errorf("message without Content-Length")
	}
	buf := make([]byte, length)
	if _, err := io.ReadFull(d.r, buf); err != nil {
		return nil, err
	}
	var m map[string]any
	return m, json.Unmarshal(buf, &m)
}

func (d *dapClient) roundTrip(cmd string, args any) (map[string]any, error) {
	if err := d.send(cmd, args); err != nil {
		return nil, err
	}
	for {
		m, err := d.recv()
		if err != nil {
			return nil, err
		}
		if m["type"] != "response" {
			d.events = append(d.events, m)
			continue
		}
		if m["success"] != true {
			return nil, fmt.Errorf("%s failed: %v", cmd, m["message"])
		}
		return m, nil
	}
}

func (d *dapClient) waitEvent(name string) (map[string]any, error) {
	for i, e := range d.events {
		if e["event"] == name {
			d.events = append(d.events[:i], d.events[i+1:]...)
			return e, nil
		}
	}
	for {
		m, err := d.recv()
		if err != nil {
			return nil, err
		}
		if m["type"] == "event" && m["event"] == name {
			return m, nil
		}
		d.events = append(d.events, m)
	}
}

// stack returns the cycle the stack frames name and what each names: the
// rules that fired into that cycle, or the design alone ("<name> @ cycle
// N" either way).
func (d *dapClient) stack() (uint64, []string, error) {
	resp, err := d.roundTrip("stackTrace", map[string]any{"threadId": 1})
	if err != nil {
		return 0, nil, err
	}
	frames, _ := body(resp)["stackFrames"].([]any)
	if len(frames) == 0 {
		return 0, nil, fmt.Errorf("stackTrace returned no frames")
	}
	var cycle uint64
	var names []string
	for _, f := range frames {
		fname, _ := f.(map[string]any)["name"].(string)
		var what string
		if _, err := fmt.Sscanf(fname, "%s @ cycle %d", &what, &cycle); err != nil {
			return 0, nil, fmt.Errorf("frame name %q: %w", fname, err)
		}
		names = append(names, what)
	}
	return cycle, names, nil
}

func (d *dapClient) evaluate(expr string) (string, error) {
	resp, err := d.roundTrip("evaluate", map[string]any{"expression": expr, "context": "repl"})
	if err != nil {
		return "", err
	}
	res, _ := body(resp)["result"].(string)
	return res, nil
}

func body(m map[string]any) map[string]any {
	b, _ := m["body"].(map[string]any)
	return b
}

// --- process management ---

type proc struct {
	cmd  *exec.Cmd
	done chan error
}

// startProc starts bin with args and waits for it to write its bound
// address to addrFile.
func startProc(bin, addrFile string, args ...string) (*proc, string, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, "", fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	p := &proc{cmd: cmd, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			return p, strings.TrimSpace(string(data)), nil
		}
		select {
		case err := <-p.done:
			return nil, "", fmt.Errorf("%s exited during startup: %v", filepath.Base(bin), err)
		case <-time.After(50 * time.Millisecond):
		}
	}
	p.kill()
	return nil, "", fmt.Errorf("%s never wrote %s", filepath.Base(bin), addrFile)
}

func (p *proc) kill() {
	if p.cmd.ProcessState == nil {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			_ = p.cmd.Process.Kill()
		}
	}
}

package dap

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cuttlego/internal/bench"
	"cuttlego/internal/kclient"
	"cuttlego/internal/server"
)

// continueBudget is how many cycles one "continue" runs before reporting
// back; the IDE's thread stays responsive and a runaway design cannot hang
// the debug session (the daemon's own step cap still applies underneath).
const continueBudget = 100_000

// Adapter drives one ksimd session on behalf of one DAP client. It is
// single-threaded by construction: DAP requests arrive in order and each
// is answered before the next is read.
type Adapter struct {
	client *kclient.Client
	in     *bufio.Reader
	out    io.Writer
	wmu    sync.Mutex
	seq    int

	id     string          // the debugged session
	design string          // its design name, for stack frames
	sched  []string        // its rule schedule, when a catalogue design
	owns   bool            // launch created it, so disconnect deletes it
	conds  []string        // breakpoint conditions, as last set by setBreakpoints
	rules  []string        // fired(rule) conditions, as last set by setFunctionBreakpoints
	cycle  uint64          // the session's cycle
	fired  map[string]bool // rule commits of the cycle that led to cycle; nil if unknown
}

// Serve runs a DAP session over rw (stdio, a TCP connection, a pipe in
// tests) against the ksimd daemon behind client. It returns when the
// client disconnects or the transport fails.
func Serve(rw io.ReadWriter, client *kclient.Client) error {
	a := &Adapter{client: client, in: bufio.NewReader(rw), out: rw}
	return a.run()
}

var errDisconnect = errors.New("dap: client disconnected")

func (a *Adapter) run() error {
	for {
		payload, err := readMessage(a.in)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil
			}
			return err
		}
		var req request
		if err := json.Unmarshal(payload, &req); err != nil {
			return fmt.Errorf("dap: malformed request: %w", err)
		}
		if err := a.dispatch(req); err != nil {
			if errors.Is(err, errDisconnect) {
				return nil
			}
			return err
		}
	}
}

func (a *Adapter) send(v any) error {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	return writeMessage(a.out, v)
}

func (a *Adapter) respond(req request, body any) error {
	a.seq++
	return a.send(response{Seq: a.seq, Type: "response", RequestSeq: req.Seq,
		Success: true, Command: req.Command, Body: body})
}

func (a *Adapter) fail(req request, err error) error {
	a.seq++
	return a.send(response{Seq: a.seq, Type: "response", RequestSeq: req.Seq,
		Success: false, Command: req.Command, Message: err.Error()})
}

func (a *Adapter) emit(name string, body any) error {
	a.seq++
	return a.send(event{Seq: a.seq, Type: "event", Event: name, Body: body})
}

// stopped tells the IDE execution halted; every stop names thread 1, the
// simulation's only thread.
func (a *Adapter) stopped(reason, description string) error {
	return a.emit("stopped", map[string]any{
		"reason": reason, "description": description, "threadId": 1, "allThreadsStopped": true,
	})
}

func (a *Adapter) dispatch(req request) error {
	ctx := context.Background()
	switch req.Command {
	case "initialize":
		if err := a.respond(req, map[string]any{
			"supportsConfigurationDoneRequest": true,
			"supportsConditionalBreakpoints":   true,
			"supportsFunctionBreakpoints":      true, // a function is a rule
			"supportsStepBack":                 true, // stepBack + reverseContinue
			"supportsEvaluateForHovers":        true,
			"supportsSetVariable":              true,
		}); err != nil {
			return err
		}
		return a.emit("initialized", nil)

	case "launch":
		var args struct {
			Design string `json:"design"`
		}
		_ = json.Unmarshal(req.Arguments, &args)
		if args.Design == "" {
			return a.fail(req, fmt.Errorf(`launch needs {"design": <catalogue name or .koika path>}`))
		}
		create := server.CreateRequest{}
		if _, ok := bench.Lookup(args.Design); ok {
			create.Catalog = args.Design
		} else {
			src, err := os.ReadFile(args.Design)
			if err != nil {
				return a.fail(req, fmt.Errorf("%q is neither a catalogue design %v nor a readable file: %w",
					args.Design, bench.Names(), err))
			}
			create.Source = string(src)
		}
		info, err := a.client.Create(ctx, create)
		if err != nil {
			return a.fail(req, err)
		}
		a.attached(ctx, info, true)
		return a.respond(req, nil)

	case "attach":
		var args struct {
			Session string `json:"session"`
		}
		_ = json.Unmarshal(req.Arguments, &args)
		if args.Session == "" {
			return a.fail(req, fmt.Errorf(`attach needs {"session": <ksimd session id>}`))
		}
		info, err := a.client.Info(ctx, args.Session)
		if err != nil {
			return a.fail(req, err)
		}
		a.attached(ctx, info, false)
		return a.respond(req, nil)

	case "setBreakpoints", "setFunctionBreakpoints":
		// A function breakpoint names a rule. The two lists are kept
		// apart, but the daemon clears breakpoints only all at once, so
		// setting either re-arms the other.
		var args struct {
			Breakpoints []struct {
				Condition string `json:"condition"`
				Line      int    `json:"line"`
				Name      string `json:"name"`
			} `json:"breakpoints"`
		}
		_ = json.Unmarshal(req.Arguments, &args)
		list, other := &a.conds, a.rules
		if req.Command == "setFunctionBreakpoints" {
			list, other = &a.rules, a.conds
		}
		if err := a.client.Break(ctx, a.id, server.BreakRequest{Clear: true}); err != nil {
			return a.fail(req, err)
		}
		for _, c := range other {
			if err := a.client.Break(ctx, a.id, server.BreakRequest{Cond: c}); err != nil {
				return a.fail(req, err)
			}
		}
		*list = (*list)[:0]
		type bp struct {
			Verified bool   `json:"verified"`
			Message  string `json:"message,omitempty"`
			Line     int    `json:"line,omitempty"`
		}
		out := make([]bp, 0, len(args.Breakpoints))
		for _, b := range args.Breakpoints {
			cond := b.Condition
			if req.Command == "setFunctionBreakpoints" {
				cond = "fired(" + b.Name + ")"
			}
			if cond == "" {
				// Simulations have no source lines to break on; only
				// conditional breakpoints can be honored.
				out = append(out, bp{Verified: false, Line: b.Line,
					Message: "line breakpoints are not supported; add a condition (e.g. done.rd0() == 1'd1)"})
				continue
			}
			if err := a.client.Break(ctx, a.id, server.BreakRequest{Cond: cond}); err != nil {
				out = append(out, bp{Verified: false, Line: b.Line, Message: err.Error()})
				continue
			}
			*list = append(*list, cond)
			out = append(out, bp{Verified: true, Line: b.Line})
		}
		return a.respond(req, map[string]any{"breakpoints": out})

	case "configurationDone":
		if err := a.respond(req, nil); err != nil {
			return err
		}
		// The session is born paused; show the IDE its entry state.
		return a.stopped("entry", fmt.Sprintf("session %s at cycle %d", a.id, a.cycle))

	case "threads":
		return a.respond(req, map[string]any{
			"threads": []map[string]any{{"id": 1, "name": "simulation"}},
		})

	case "stackTrace":
		info, err := a.client.Info(ctx, a.id)
		if err != nil {
			return a.fail(req, err)
		}
		if info.Cycle != a.cycle {
			// Another client moved the session.
			a.cycle, a.fired = info.Cycle, nil
		}
		names := a.firedRules()
		if len(names) == 0 {
			names = []string{a.design}
		}
		frames := make([]map[string]any, len(names))
		for i, name := range names {
			frames[i] = map[string]any{
				"id":     i + 1,
				"name":   fmt.Sprintf("%s @ cycle %d", name, a.cycle),
				"line":   0,
				"column": 0,
			}
		}
		return a.respond(req, map[string]any{"stackFrames": frames, "totalFrames": len(frames)})

	case "scopes":
		return a.respond(req, map[string]any{
			"scopes": []map[string]any{{
				"name": "Registers", "variablesReference": 1, "expensive": false,
			}},
		})

	case "variables":
		regs, err := a.client.Regs(ctx, a.id, server.RegsRequest{All: true})
		if err != nil {
			return a.fail(req, err)
		}
		names := make([]string, 0, len(regs.Values))
		for name := range regs.Values {
			names = append(names, name)
		}
		sort.Strings(names)
		type variable struct {
			Name               string `json:"name"`
			Value              string `json:"value"`
			VariablesReference int    `json:"variablesReference"`
		}
		vars := make([]variable, 0, len(names))
		for _, name := range names {
			vars = append(vars, variable{Name: name, Value: regText(regs.Values[name])})
		}
		return a.respond(req, map[string]any{"variables": vars})

	case "setVariable":
		var args struct {
			Name  string `json:"name"`
			Value string `json:"value"`
		}
		_ = json.Unmarshal(req.Arguments, &args)
		// A poke at the register's own width; the value is hex with 0x,
		// binary with 0b, or decimal, and a trailing "(N bits)" is ignored.
		cur, err := a.client.Regs(ctx, a.id, server.RegsRequest{Get: []string{args.Name}})
		if err != nil {
			return a.fail(req, err)
		}
		text, _, _ := strings.Cut(strings.TrimSpace(args.Value), " ")
		v, err := strconv.ParseUint(text, 0, 64)
		if err != nil {
			return a.fail(req, fmt.Errorf("%q is not a number", args.Value))
		}
		reg := server.RegValue{Width: cur.Values[args.Name].Width, Hex: strconv.FormatUint(v, 16)}
		if _, err := a.client.Regs(ctx, a.id, server.RegsRequest{Set: map[string]server.RegValue{args.Name: reg}}); err != nil {
			return a.fail(req, err)
		}
		return a.respond(req, map[string]any{"value": regText(reg)})

	case "continue":
		resp, err := a.client.Step(ctx, a.id, continueBudget)
		if err != nil {
			return a.fail(req, err)
		}
		a.cycle, a.fired = resp.Cycle, resp.Fired
		if err := a.respond(req, map[string]any{"allThreadsContinued": true}); err != nil {
			return err
		}
		if resp.Stopped != "" {
			return a.stopped("breakpoint", resp.Stopped)
		}
		return a.stopped("pause", fmt.Sprintf("ran %d cycles without hitting a breakpoint", resp.Ran))

	case "next", "stepIn", "stepOut":
		resp, err := a.client.Step(ctx, a.id, 1)
		if err != nil {
			return a.fail(req, err)
		}
		a.cycle, a.fired = resp.Cycle, resp.Fired
		if err := a.respond(req, nil); err != nil {
			return err
		}
		return a.stopped("step", fmt.Sprintf("cycle %d", a.cycle))

	case "stepBack":
		if a.cycle == 0 {
			return a.fail(req, fmt.Errorf("already at cycle 0"))
		}
		if err := a.rewind(ctx, a.cycle-1); err != nil {
			return a.fail(req, err)
		}
		if err := a.respond(req, nil); err != nil {
			return err
		}
		return a.stopped("step", fmt.Sprintf("cycle %d", a.cycle))

	case "reverseContinue":
		reason, desc, err := a.reverseContinue(ctx)
		if err != nil {
			return a.fail(req, err)
		}
		if err := a.respond(req, nil); err != nil {
			return err
		}
		return a.stopped(reason, desc)

	case "evaluate":
		var args struct {
			Expression string `json:"expression"`
		}
		_ = json.Unmarshal(req.Arguments, &args)
		result, err := a.evaluate(ctx, strings.TrimSpace(args.Expression))
		if err != nil {
			return a.fail(req, err)
		}
		return a.respond(req, map[string]any{"result": result, "variablesReference": 0})

	case "pause":
		// Steps are synchronous server-side; there is nothing in flight to
		// interrupt. Acknowledge and report the current position.
		if err := a.respond(req, nil); err != nil {
			return err
		}
		return a.stopped("pause", fmt.Sprintf("cycle %d", a.cycle))

	case "disconnect", "terminate":
		if a.owns && a.id != "" {
			_ = a.client.Delete(ctx, a.id)
		}
		if err := a.respond(req, nil); err != nil {
			return err
		}
		_ = a.emit("terminated", nil)
		return errDisconnect

	default:
		return a.fail(req, fmt.Errorf("unsupported request %q", req.Command))
	}
}

// attached adopts the session launch or attach named. It also
// best-effort enables trace recording so evaluate can run time-travel
// queries: a daemon without a store answers 409, and the debug session
// still works, only queries are unavailable.
func (a *Adapter) attached(ctx context.Context, info server.SessionInfo, owns bool) {
	a.id, a.design, a.owns, a.cycle, a.fired, a.sched = info.ID, info.Design, owns, info.Cycle, nil, nil
	if bm, ok := bench.Lookup(info.Design); ok {
		a.sched = bm.New().Design.Schedule
	}
	_, _ = a.client.TraceRecord(ctx, a.id, true)
}

// firedRules names the rules that committed in the cycle that led to the
// current one, in schedule order; rules the schedule does not list (a
// design from outside the catalogue) follow by name.
func (a *Adapter) firedRules() []string {
	var names, out []string
	for r, ok := range a.fired {
		if ok {
			names = append(names, r)
		}
	}
	sort.Strings(names)
	for _, r := range append(slices.Clip(a.sched), names...) {
		if slices.Contains(names, r) && !slices.Contains(out, r) {
			out = append(out, r)
		}
	}
	return out
}

// rewind moves the session back to cycle target. The daemon restores a
// snapshot and replays, which leaves no record of the rules that fired in
// the cycle into target, so past cycle 0 rewind lands one cycle short and
// steps once: that step reports them.
func (a *Adapter) rewind(ctx context.Context, target uint64) error {
	n := a.cycle - target
	if target > 0 {
		n++
	}
	info, err := a.client.Reverse(ctx, a.id, n)
	if err != nil {
		return err
	}
	a.cycle, a.fired = info.Cycle, nil
	if target == 0 {
		return nil
	}
	resp, err := a.client.Step(ctx, a.id, 1)
	if err != nil {
		return err
	}
	a.cycle, a.fired = resp.Cycle, resp.Fired
	return nil
}

// regText renders a register value as the Variables pane shows it.
func regText(v server.RegValue) string { return fmt.Sprintf("0x%s (%d bits)", v.Hex, v.Width) }

// reverseContinue runs backwards to the most recent earlier cycle where
// any breakpoint held, a condition or a rule firing, found with one "last"
// trace query over the recording; without breakpoints or a recording it
// rewinds to cycle 0.
func (a *Adapter) reverseContinue(ctx context.Context) (reason, desc string, err error) {
	if a.cycle == 0 {
		return "entry", "already at cycle 0", nil
	}
	if conds := append(slices.Clip(a.conds), a.rules...); len(conds) > 0 {
		expr := "(" + strings.Join(conds, ") | (") + ")"
		res, qerr := a.client.TraceQuery(ctx, a.id, server.TraceQueryRequest{
			Mode: "last", Expr: expr, From: 0, To: a.cycle - 1,
		})
		var apiErr *kclient.APIError
		switch {
		case qerr == nil && res.Matched:
			if err := a.rewind(ctx, res.Cycle); err != nil {
				return "", "", err
			}
			return "breakpoint", fmt.Sprintf("breakpoint held at cycle %d", a.cycle), nil
		case qerr != nil && !(errors.As(qerr, &apiErr) && apiErr.Status == http.StatusConflict):
			// 409 means no recording — fall through to a plain rewind; any
			// other failure is real.
			return "", "", qerr
		}
	}
	if err := a.rewind(ctx, 0); err != nil {
		return "", "", err
	}
	return "entry", fmt.Sprintf("rewound to cycle %d", a.cycle), nil
}

// evaluate answers an IDE expression: a bare register name reads the live
// value, anything else runs as a trace query ("first <expr>" unless the
// expression already names a mode).
func (a *Adapter) evaluate(ctx context.Context, expr string) (string, error) {
	if expr == "" {
		return "", fmt.Errorf("empty expression")
	}
	if isIdent(expr) {
		regs, err := a.client.Regs(ctx, a.id, server.RegsRequest{Get: []string{expr}})
		if err == nil {
			if v, ok := regs.Values[expr]; ok {
				return regText(v), nil
			}
		}
		return "", fmt.Errorf("no register %q", expr)
	}
	q := expr
	switch strings.Fields(expr)[0] {
	case "first", "last", "count", "scan":
	default:
		q = "first " + expr
	}
	res, err := a.client.TraceQuery(ctx, a.id, server.TraceQueryRequest{Query: q})
	if err != nil {
		return "", err
	}
	switch {
	case len(res.Matches) > 0:
		return fmt.Sprintf("%d matching cycles: %v", len(res.Matches), res.Matches), nil
	case res.Matched:
		return fmt.Sprintf("cycle %d", res.Cycle), nil
	case strings.HasPrefix(res.Query, "count"):
		return fmt.Sprintf("%d matching cycles", res.Count), nil
	default:
		return "no match", nil
	}
}

// isIdent reports whether s looks like a plain register name.
func isIdent(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '.' {
			continue
		}
		return false
	}
	return len(s) > 0
}

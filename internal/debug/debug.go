// Package debug is the software-debugger experience the paper builds on
// top of its generated models: step through a design cycle by cycle, rule
// by rule, or operation by operation; break on rule entry, on FAIL sites,
// or on writes to chosen registers; watch registers for value changes; and
// step backwards via snapshot-and-replay (the rr-style reverse execution of
// Case Study 1). Struct- and enum-typed registers print with their field
// and member names, so protocol state reads as WaitFillResp rather than
// raw bits.
//
// The debugger drives a Cuttlesim simulator compiled with an execution
// hook; everything works on unmodified designs.
package debug

import (
	"fmt"
	"sort"
	"strings"

	"cuttlego/internal/ast"
	"cuttlego/internal/bits"
	"cuttlego/internal/cuttlesim"
	"cuttlego/internal/engine"
	"cuttlego/internal/sim"
)

// Event is one execution event delivered to breakpoint predicates.
type Event struct {
	// Kind discriminates the event.
	Kind EventKind
	// Cycle is the cycle number the event occurred in.
	Cycle uint64
	// Rule is the rule index (valid for all kinds).
	Rule int
	// NodeID is the AST node (ops and fails only).
	NodeID int
	// Reg is the register index (ops only; -1 otherwise).
	Reg int
	// Value is the transferred value (ops only).
	Value uint64
	// OK reports whether the operation's checks passed.
	OK bool
	// Fired reports whether the rule committed (RuleEnd only).
	Fired bool
}

// EventKind enumerates event kinds.
type EventKind int

// Event kinds.
const (
	EvRuleStart EventKind = iota
	EvRuleEnd
	EvOp
	EvFail
)

func (k EventKind) String() string {
	return [...]string{"rule-start", "rule-end", "op", "fail"}[k]
}

// Breakpoint is a predicate over events; execution stops when one returns
// true.
type Breakpoint struct {
	Name string
	Hit  func(*Debugger, Event) bool
}

// Debugger wraps a design in a hooked simulator.
type Debugger struct {
	d   *ast.Design
	sim *cuttlesim.Simulator
	tb  sim.Testbench

	breakpoints []Breakpoint
	conds       []condBreak
	watch       map[int]uint64 // register -> last seen value
	trace       []Event
	traceCap    int

	stopped     bool
	stopReason  string
	currentRule int

	// snapshots for reverse execution
	snapEvery uint64
	snaps     []sim.Snapshot
}

// New builds a debugger for a checked design. The testbench may be nil.
func New(d *ast.Design, tb sim.Testbench) (*Debugger, error) {
	dbg := &Debugger{d: d, tb: tb, watch: map[int]uint64{}, traceCap: 64, snapEvery: 64}
	e, err := engine.MustParse("cuttlesim(static,closure)").Build(d, nil, nil, engine.Instrument{Hook: (*hook)(dbg)})
	if err != nil {
		return nil, err
	}
	s := e.(*cuttlesim.Simulator)
	dbg.sim = s
	if tb == nil {
		dbg.tb = sim.NopBench{}
	}
	dbg.snaps = append(dbg.snaps, s.Snapshot())
	return dbg, nil
}

// hook adapts the debugger to cuttlesim.Hook without exposing the methods
// on Debugger itself.
type hook Debugger

func (h *hook) OnRuleStart(rule int) {
	d := (*Debugger)(h)
	d.currentRule = rule
	d.deliver(Event{Kind: EvRuleStart, Cycle: d.sim.CycleCount(), Rule: rule, Reg: -1})
}

func (h *hook) OnRuleEnd(rule int, fired bool) {
	d := (*Debugger)(h)
	d.deliver(Event{Kind: EvRuleEnd, Cycle: d.sim.CycleCount(), Rule: rule, Reg: -1, Fired: fired})
}

func (h *hook) OnOp(nodeID, reg int, value uint64, ok bool) {
	d := (*Debugger)(h)
	kind := EvOp
	if reg < 0 {
		kind = EvFail
	}
	d.deliver(Event{Kind: kind, Cycle: d.sim.CycleCount(), Rule: d.currentRule,
		NodeID: nodeID, Reg: reg, Value: value, OK: ok})
}

func (d *Debugger) deliver(ev Event) {
	if len(d.trace) >= d.traceCap {
		copy(d.trace, d.trace[1:])
		d.trace = d.trace[:len(d.trace)-1]
	}
	d.trace = append(d.trace, ev)
	for _, bp := range d.breakpoints {
		if bp.Hit(d, ev) {
			d.stopped = true
			d.stopReason = fmt.Sprintf("%s at cycle %d, rule %s (%v)",
				bp.Name, ev.Cycle, d.d.Rules[ev.Rule].Name, ev.Kind)
		}
	}
}

// SetSnapshotInterval changes how often the debugger checkpoints for
// reverse execution (default 64 cycles). Smaller intervals make ReverseStep
// cheaper at the cost of memory; tests use it to exercise rewinds that
// cross checkpoint boundaries.
func (d *Debugger) SetSnapshotInterval(n uint64) {
	if n == 0 {
		n = 1
	}
	d.snapEvery = n
}

// Design returns the debugged design.
func (d *Debugger) Design() *ast.Design { return d.d }

// Engine returns the underlying simulator (for register access).
func (d *Debugger) Engine() sim.Engine { return d.sim }

// CycleCount returns the current cycle.
func (d *Debugger) CycleCount() uint64 { return d.sim.CycleCount() }

// Trace returns the most recent events (oldest first).
func (d *Debugger) Trace() []Event { return d.trace }

// StopReason describes why the last Continue stopped ("" if it ran out of
// budget).
func (d *Debugger) StopReason() string { return d.stopReason }

// --- breakpoints -----------------------------------------------------------

// BreakOnRule stops when the named rule starts executing.
func (d *Debugger) BreakOnRule(rule string) {
	idx := d.d.RuleIndex(rule)
	d.breakpoints = append(d.breakpoints, Breakpoint{
		Name: "break rule " + rule,
		Hit: func(_ *Debugger, ev Event) bool {
			return ev.Kind == EvRuleStart && ev.Rule == idx
		},
	})
}

// BreakOnFail stops at any abort site — the FAIL() breakpoint of Case
// Study 1. An optional rule name restricts it.
func (d *Debugger) BreakOnFail(rule string) {
	idx := -1
	if rule != "" {
		idx = d.d.RuleIndex(rule)
	}
	d.breakpoints = append(d.breakpoints, Breakpoint{
		Name: "break fail " + rule,
		Hit: func(_ *Debugger, ev Event) bool {
			if ev.Kind == EvFail || ev.Kind == EvOp && !ev.OK {
				return idx < 0 || ev.Rule == idx
			}
			return false
		},
	})
}

// BreakOnWrite stops when the named register is written.
func (d *Debugger) BreakOnWrite(reg string) {
	idx := d.d.RegIndex(reg)
	d.breakpoints = append(d.breakpoints, Breakpoint{
		Name: "break write " + reg,
		Hit: func(dbg *Debugger, ev Event) bool {
			return ev.Kind == EvOp && ev.OK && ev.Reg == idx && dbg.isWrite(ev.NodeID)
		},
	})
}

// BreakWhen stops at the end of any cycle in which the predicate holds —
// gdb's conditional breakpoints, with the whole architectural state in
// scope. The predicate must not advance the engine.
func (d *Debugger) BreakWhen(name string, cond func(sim.Engine) bool) {
	d.conds = append(d.conds, condBreak{name: name, cond: cond})
}

// Watch stops between cycles when the named register's committed value
// changes (a hardware watchpoint).
func (d *Debugger) Watch(reg string) {
	idx := d.d.RegIndex(reg)
	d.watch[idx] = d.sim.Reg(reg).Val
}

// ClearBreakpoints removes all breakpoints, conditions, and watchpoints.
func (d *Debugger) ClearBreakpoints() {
	d.breakpoints = nil
	d.conds = nil
	d.watch = map[int]uint64{}
}

// isWrite reports whether a node ID is a write op (cached lazily).
func (d *Debugger) isWrite(nodeID int) bool {
	n := findNode(d.d, nodeID)
	return n != nil && n.Kind == ast.KWrite
}

func findNode(d *ast.Design, id int) *ast.Node {
	var found *ast.Node
	var walk func(n *ast.Node)
	walk = func(n *ast.Node) {
		if n == nil || found != nil {
			return
		}
		if n.ID == id {
			found = n
			return
		}
		walk(n.A)
		walk(n.B)
		walk(n.C)
		for _, it := range n.Items {
			walk(it)
		}
	}
	for i := range d.Rules {
		walk(d.Rules[i].Body)
		if found != nil {
			break
		}
	}
	return found
}

// --- execution --------------------------------------------------------------

// Step runs exactly one cycle (breakpoints are reported but do not abort
// the cycle: cycles are atomic).
func (d *Debugger) Step() {
	d.stopped = false
	d.stopReason = ""
	d.tb.BeforeCycle(d.sim)
	d.sim.Cycle()
	d.tb.AfterCycle(d.sim)
	d.checkWatches()
	if d.sim.CycleCount()%d.snapEvery == 0 {
		d.snaps = append(d.snaps, d.sim.Snapshot())
	}
}

// Continue runs until a breakpoint or watchpoint fires, or maxCycles pass.
// It reports whether it stopped at a break.
func (d *Debugger) Continue(maxCycles uint64) bool {
	d.stopped = false
	d.stopReason = ""
	for i := uint64(0); i < maxCycles; i++ {
		d.tb.BeforeCycle(d.sim)
		d.sim.Cycle()
		d.tb.AfterCycle(d.sim)
		d.checkWatches()
		if d.sim.CycleCount()%d.snapEvery == 0 {
			d.snaps = append(d.snaps, d.sim.Snapshot())
		}
		if d.stopped {
			return true
		}
	}
	return false
}

type condBreak struct {
	name string
	cond func(sim.Engine) bool
}

func (d *Debugger) checkWatches() {
	for _, cb := range d.conds {
		if cb.cond(d.sim) {
			d.stopped = true
			d.stopReason = fmt.Sprintf("condition %q at cycle %d", cb.name, d.sim.CycleCount())
		}
	}
	for idx, last := range d.watch {
		name := d.d.Registers[idx].Name
		now := d.sim.Reg(name).Val
		if now != last {
			d.watch[idx] = now
			d.stopped = true
			d.stopReason = fmt.Sprintf("watchpoint %s: %#x -> %#x at cycle %d",
				name, last, now, d.sim.CycleCount())
		}
	}
}

// ReverseStep rewinds the machine n cycles by restoring the nearest
// earlier snapshot and deterministically re-executing forward. The
// testbench must be deterministic (all shipped benches are); watchpoints
// and breakpoints are suppressed during replay.
func (d *Debugger) ReverseStep(n uint64) error {
	target := d.sim.CycleCount()
	if n > target {
		return fmt.Errorf("debug: cannot rewind %d cycles from cycle %d", n, target)
	}
	target -= n
	// Find the latest snapshot at or before target.
	i := sort.Search(len(d.snaps), func(i int) bool { return d.snaps[i].Cycle > target }) - 1
	if i < 0 {
		return fmt.Errorf("debug: no snapshot before cycle %d", target)
	}
	if r, ok := d.tb.(Rewindable); ok {
		r.Rewind(d.snaps[i].Cycle)
	}
	d.sim.Restore(d.snaps[i])
	d.snaps = d.snaps[:i+1]
	saved := d.breakpoints
	savedConds := d.conds
	savedWatch := d.watch
	d.breakpoints = nil
	d.conds = nil
	d.watch = map[int]uint64{}
	for d.sim.CycleCount() < target {
		d.Step()
	}
	d.breakpoints = saved
	d.conds = savedConds
	d.watch = savedWatch
	for idx := range d.watch {
		d.watch[idx] = d.sim.Reg(d.d.Registers[idx].Name).Val
	}
	d.stopped = false
	d.stopReason = ""
	return nil
}

// Rewindable is implemented by testbenches whose state can be rolled back
// to a cycle boundary for deterministic replay.
type Rewindable interface {
	Rewind(cycle uint64)
}

// --- inspection --------------------------------------------------------------

// Print renders a register with its type's formatting (enum member names,
// struct fields — no bit slicing by hand, no custom pretty printers).
func (d *Debugger) Print(reg string) string {
	i := d.d.RegIndex(reg)
	v := d.sim.Reg(reg)
	return fmt.Sprintf("%s = %s", reg, d.d.Registers[i].Type.Format(v))
}

// PrintAll renders every register, one per line.
func (d *Debugger) PrintAll() string {
	var sb strings.Builder
	for _, r := range d.d.Registers {
		fmt.Fprintf(&sb, "%s = %s\n", r.Name, r.Type.Format(d.sim.Reg(r.Name)))
	}
	return sb.String()
}

// RuleStatus summarizes the last executed cycle.
func (d *Debugger) RuleStatus() string {
	var sb strings.Builder
	for _, name := range d.d.Schedule {
		status := "FAILED"
		if d.sim.RuleFired(name) {
			status = "fired"
		}
		fmt.Fprintf(&sb, "%-24s %s\n", name, status)
	}
	return sb.String()
}

// LastFailure returns the most recent failure event and a description of
// where it happened, if any failure is in the trace window.
func (d *Debugger) LastFailure() (Event, string, bool) {
	return d.lastFailure(-1)
}

// LastFailureIn is LastFailure restricted to one rule.
func (d *Debugger) LastFailureIn(rule string) (Event, string, bool) {
	return d.lastFailure(d.d.RuleIndex(rule))
}

func (d *Debugger) lastFailure(rule int) (Event, string, bool) {
	for i := len(d.trace) - 1; i >= 0; i-- {
		ev := d.trace[i]
		if rule >= 0 && ev.Rule != rule {
			continue
		}
		if ev.Kind == EvFail || ev.Kind == EvOp && !ev.OK {
			desc := fmt.Sprintf("rule %s", d.d.Rules[ev.Rule].Name)
			if ev.Reg >= 0 {
				desc += fmt.Sprintf(", conflicting access to %s", d.d.Registers[ev.Reg].Name)
			} else {
				desc += ", explicit abort"
			}
			return ev, desc, true
		}
	}
	return Event{}, "", false
}

// SetReg pokes a register (useful for what-if exploration at a prompt).
func (d *Debugger) SetReg(reg string, v bits.Bits) { d.sim.SetReg(reg, v) }

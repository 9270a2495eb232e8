// Package sim defines the interface shared by every simulation pipeline in
// this module — the reference interpreter (package interp), the Cuttlesim
// compiler's engines (package cuttlesim), and the circuit-level simulator
// (package rtlsim) — so that designs, testbenches, equivalence tests, and
// benchmarks are written once and run against all of them.
package sim

import (
	"context"

	"cuttlego/internal/ast"
	"cuttlego/internal/bits"
	"cuttlego/internal/diag"
)

// Engine is a cycle-accurate simulator of one checked design. Register
// accessors address the publicly observable state: values as of the
// beginning of the current (not yet executed) cycle. SetReg models the
// testbench driving input registers between cycles.
type Engine interface {
	// Design returns the design being simulated.
	Design() *ast.Design
	// Cycle executes one clock cycle.
	Cycle()
	// Reg returns the named register's current (beginning-of-cycle) value.
	Reg(name string) bits.Bits
	// SetReg overwrites the named register's current value.
	SetReg(name string, v bits.Bits)
	// CycleCount returns how many cycles have executed.
	CycleCount() uint64
	// RuleFired reports whether the named rule committed during the most
	// recently executed cycle.
	RuleFired(rule string) bool
}

// Snapshotter is implemented by engines whose full architectural state can
// be captured and restored; the debugger's reverse execution relies on it.
type Snapshotter interface {
	// Snapshot captures the architectural state and cycle count.
	Snapshot() Snapshot
	// Restore rewinds the engine to a previously captured snapshot.
	Restore(Snapshot)
}

// Snapshot is a captured engine state: the cycle count plus every register
// in declaration order. It is wire-serializable (MarshalBinary /
// UnmarshalBinary in snapshot.go) so engine state can be checkpointed to
// disk, shipped over RPC, and restored into a fresh engine.
type Snapshot struct {
	Cycle uint64
	Regs  []bits.Bits
	// Wide is an optional parallel store for registers wider than 64 bits:
	// when non-nil, a nonzero-width Wide[i] overrides Regs[i]. Today's
	// engines cap registers at 64 bits and never populate it, but the
	// snapshot format carries wide registers so a frontend lifting that cap
	// does not need a format revision.
	Wide []bits.Wide
}

// RowReader is implemented by engines that can copy every register's
// payload out in one call. ReadRow fills dst — one slot per register, in
// declaration order — with the same values Reg(name).Val returns, without a
// name lookup per register. ReadFired fills dst — FiredWords(len(rules))
// words — with the fired-rule bitset of the most recently executed cycle:
// bit i%64 of word i/64 is set when rule i of Design().Rules committed, as
// RuleFired reports. Compiled debugger predicates and the trace recorder
// read a cycle this way; every engine in this module implements it.
type RowReader interface {
	ReadRow(dst []uint64)
	ReadFired(dst []uint64)
}

// FiredWords is how many 64-bit words the fired-rule bitset of a design
// with nrules rules takes.
func FiredWords(nrules int) int { return (nrules + 63) / 64 }

// RowLen is the length of a watched row of d: the register payloads, in
// declaration order, followed by the fired-rule words (see RowReader).
func RowLen(d *ast.Design) int { return len(d.Registers) + FiredWords(len(d.Rules)) }

// PackFired stores fired, one flag per rule, into dst as the fired-rule
// bitset RowReader.ReadFired describes.
func PackFired(dst []uint64, fired []bool) {
	clear(dst)
	for i, f := range fired {
		if f {
			dst[i>>6] |= 1 << (i & 63)
		}
	}
}

// Advancer is implemented by engines that can execute a whole run of cycles
// more cheaply than calling Cycle in a loop — e.g. an activity-driven engine
// that fast-forwards once the design is quiescent. Advance(n) must be
// observably identical to n Cycle calls (register state, fired flags, cycle
// count, profiles) and must execute exactly n cycles, returning n. Run and
// RunContext use it only when no testbench is attached, since a testbench
// must see every cycle boundary.
type Advancer interface {
	Advance(n uint64) uint64
}

// Testbench drives an engine from the outside: it may set input registers
// before each cycle and observe output registers (applying memory writes,
// collecting results) after each cycle. Testbenches must be deterministic
// functions of the observed engine state and cycle number so that replays
// (reverse debugging) and cross-engine comparisons agree.
type Testbench interface {
	// BeforeCycle runs before the engine executes a cycle.
	BeforeCycle(e Engine)
	// AfterCycle runs after; returning false stops Run early.
	AfterCycle(e Engine) bool
}

// NopBench is a Testbench that does nothing.
type NopBench struct{}

// BeforeCycle implements Testbench.
func (NopBench) BeforeCycle(Engine) {}

// AfterCycle implements Testbench.
func (NopBench) AfterCycle(Engine) bool { return true }

// Run drives the engine for at most n cycles under the testbench, returning
// the number of cycles actually executed.
func Run(e Engine, tb Testbench, n uint64) uint64 {
	if tb == nil {
		if a, ok := e.(Advancer); ok {
			return a.Advance(n)
		}
		tb = NopBench{}
	}
	var i uint64
	for ; i < n; i++ {
		tb.BeforeCycle(e)
		e.Cycle()
		if !tb.AfterCycle(e) {
			return i + 1
		}
	}
	return i
}

// ctxCheckInterval is how many cycles RunContext executes between
// cancellation checks: rare enough that the hot loop stays hot, frequent
// enough that a runaway simulation stops within microseconds of a timeout.
const ctxCheckInterval = 1024

// RunContext is Run under a context: the simulation stops early when ctx is
// cancelled (deadline, timeout, interrupt), returning the cycles executed so
// far along with ctx.Err(). An engine panic (a toolchain bug, since the
// design was checked) is converted to an *diag.Internal error rather than
// crashing the caller.
func RunContext(ctx context.Context, e Engine, tb Testbench, n uint64) (cycles uint64, err error) {
	defer diag.Guard("sim: run", &err)
	if tb == nil {
		if a, ok := e.(Advancer); ok {
			var i uint64
			for i < n {
				select {
				case <-ctx.Done():
					return i, ctx.Err()
				default:
				}
				chunk := n - i
				if chunk > ctxCheckInterval {
					chunk = ctxCheckInterval
				}
				i += a.Advance(chunk)
			}
			return i, nil
		}
		tb = NopBench{}
	}
	var i uint64
	for ; i < n; i++ {
		if i%ctxCheckInterval == 0 {
			select {
			case <-ctx.Done():
				return i, ctx.Err()
			default:
			}
		}
		tb.BeforeCycle(e)
		e.Cycle()
		if !tb.AfterCycle(e) {
			return i + 1, nil
		}
	}
	return i, nil
}

// Cond is a stop condition RunUntil checks after every cycle, over the
// watched row (RowLen: register payloads, then fired-rule words). Code is
// the same condition as a condition-VM program (gomodel.EncodeCondition),
// the form engines that run the loop out of process evaluate. Compiled
// debugger predicates (debug.Predicate) are Conds.
type Cond interface {
	Eval(row []uint64) bool
	Code() []uint64
}

// Watch is what RunUntil does besides simulating: the stop conditions, in
// priority order, and OnRow, which, when non-nil, receives every executed
// cycle's count and row (the trace recorder): RowLen words, the register
// payloads followed by the fired-rule words. The row is reused between
// calls, and OnRow must not drive the engine.
type Watch struct {
	Conds []Cond
	OnRow func(cycle uint64, row []uint64) error

	row []uint64 // scratch for StepUntil, grown on first use
}

// UntilRunner is implemented by engines that run RunUntil's loop
// themselves, such as the native tier, whose simulator subprocess checks
// the conditions and streams the rows back in one round trip per batch. It
// must be observably identical to StepUntil with no testbench.
type UntilRunner interface {
	RunUntil(ctx context.Context, n uint64, w *Watch) (ran uint64, hit int, err error)
}

// RunUntil runs at most n cycles under the testbench and stops after the
// first cycle at which one of w's conditions holds. It returns the cycles
// run and the index of the condition that held, or -1. Without conditions
// and rows to deliver it is RunContext; engines implementing UntilRunner
// run the loop themselves when no host-side testbench is attached.
func RunUntil(ctx context.Context, e Engine, tb Testbench, n uint64, w *Watch) (ran uint64, hit int, err error) {
	if w == nil || len(w.Conds) == 0 && w.OnRow == nil {
		ran, err = RunContext(ctx, e, tb, n)
		return ran, -1, err
	}
	if u, ok := e.(UntilRunner); ok && tb == nil {
		hit = -1
		defer diag.Guard("sim: run until", &err)
		return u.RunUntil(ctx, n, w)
	}
	return StepUntil(ctx, e, tb, n, w)
}

// StepUntil is RunUntil's loop for any RowReader engine: per cycle,
// BeforeCycle, Cycle, AfterCycle, one ReadRow and ReadFired, OnRow, then
// the conditions, with RunContext's cancellation checks. Fired flags,
// profiles and rows match stepping one cycle at a time; the count of
// cycles run stays exact when the engine panics mid-run.
func StepUntil(ctx context.Context, e Engine, tb Testbench, n uint64, w *Watch) (ran uint64, hit int, err error) {
	hit = -1
	defer diag.Guard("sim: run until", &err)
	if tb == nil {
		tb = NopBench{}
	}
	rr := e.(RowReader)
	d := e.Design()
	if n := RowLen(d); len(w.row) != n {
		w.row = make([]uint64, n)
	}
	row := w.row
	regs, fired := row[:len(d.Registers)], row[len(d.Registers):]
	for ran < n {
		if ran%ctxCheckInterval == 0 {
			select {
			case <-ctx.Done():
				return ran, -1, ctx.Err()
			default:
			}
		}
		tb.BeforeCycle(e)
		e.Cycle()
		more := tb.AfterCycle(e)
		ran++
		rr.ReadRow(regs)
		rr.ReadFired(fired)
		if w.OnRow != nil {
			if err := w.OnRow(e.CycleCount(), row); err != nil {
				return ran, -1, err
			}
		}
		for i, c := range w.Conds {
			if c.Eval(row) {
				return ran, i, nil
			}
		}
		if !more {
			break
		}
	}
	return ran, -1, nil
}

// StateOf captures every register of an engine, in declaration order. Used
// by cross-engine equivalence tests.
func StateOf(e Engine) []bits.Bits {
	d := e.Design()
	out := make([]bits.Bits, len(d.Registers))
	for i, r := range d.Registers {
		out[i] = e.Reg(r.Name)
	}
	return out
}

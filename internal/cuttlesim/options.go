// Package cuttlesim is this module's reproduction of the paper's primary
// contribution: a simulation-specific compiler for Kôika designs. Where the
// hardware pipeline (package circuit + package rtlsim) evaluates every rule
// every cycle and reconciles results afterwards, Cuttlesim compiles each
// design into sequential code built around lightweight transactions that
// exit early on conflicts and aborts.
//
// The paper derives its implementation through a sequence of refinements
// (§3.2) followed by design-specific optimizations driven by static
// analysis (§3.3). Every step of that ladder is implemented here as a
// selectable optimization Level so the ablation benchmarks can measure each
// step's contribution, and all levels are tested for cycle-for-cycle
// equivalence with the reference interpreter.
//
// Two backends share the transactional machine: Closure compiles rules to
// trees of Go closures (the analogue of the paper's generated C++ compiled
// by an optimizing compiler), and Bytecode flattens rules into a compact
// instruction stream run by a small VM (the analogue of compiling the same
// model with a different C++ compiler — used by the Figure 3 reproduction).
package cuttlesim

import "fmt"

// Level selects how far down the paper's optimization ladder the simulator
// goes. Each level includes all previous ones.
type Level int

// Optimization levels, in the order the paper derives them.
const (
	// LNaive (§3.1): beginning-of-cycle state plus a cycle log and a rule
	// log whose per-register entries interleave read-write sets with data
	// fields; logs are fully cleared on entry, merged on commit.
	LNaive Level = iota
	// LSplitSets (§3.2 "Separate read-write sets and data"): read-write
	// bitsets live apart from written data, so clearing a log is one
	// cache-friendly memset.
	LSplitSets
	// LAccumulate (§3.2 "Accumulate logs instead of merging them"): keep
	// the cycle log L and the accumulated log L++ℓ; checks consult one
	// log and commits become plain copies.
	LAccumulate
	// LResetOnFail (§3.2 "Reset on failure, not on entry"): maintain the
	// invariant that the accumulated log matches the cycle log at the end
	// of every rule, eliminating per-rule entry resets.
	LResetOnFail
	// LMergeData (§3.2 "Merge data0 and data1"): one data field per
	// register per log; registers caught in Goldbergian read-own-write
	// patterns keep exact split fields.
	LMergeData
	// LNoBOC (§3.2 "Eliminate beginning-of-cycle state"): log data is
	// initialized to the registers' values, the separate state array
	// disappears, and end-of-cycle commits vanish.
	LNoBOC
	// LStatic (§3.3): design-specific optimization via abstract
	// interpretation — minimized read-write sets, no tracking at all for
	// safe registers, commits and rollbacks restricted to rule footprints,
	// and failure paths that exit without rollback.
	LStatic
	// LActivity: activity-driven scheduling on top of LStatic. Per-register
	// dirty generations are bumped when a commit (or SetReg/Restore)
	// touches a register; a skippable rule (analysis.RuleInfo.Skippable)
	// that aborted at an explicit fail node is parked and re-attempted only
	// once a register in its ReadSet has been dirtied — otherwise the abort
	// is replayed at zero execution cost. When every scheduled rule is
	// parked on a clean read set the whole design is quiescent and
	// Simulator.Advance fast-forwards the remaining cycles in O(1). The
	// machinery disables itself (falling back to plain LStatic behaviour)
	// when a debug hook or coverage instrumentation observes rule attempts.
	LActivity
)

// Levels lists every optimization level, for ablation sweeps.
func Levels() []Level {
	return []Level{LNaive, LSplitSets, LAccumulate, LResetOnFail, LMergeData, LNoBOC, LStatic, LActivity}
}

func (l Level) String() string {
	names := [...]string{"naive", "split-sets", "accumulate", "reset-on-fail",
		"merge-data", "no-boc", "static", "activity"}
	if l < 0 || int(l) >= len(names) {
		return fmt.Sprintf("level(%d)", int(l))
	}
	return names[l]
}

// Backend selects the execution engine.
type Backend int

// Backends.
const (
	// Closure compiles each rule into a tree of Go closures.
	Closure Backend = iota
	// Bytecode flattens each rule into instructions run by a small VM.
	Bytecode
)

func (b Backend) String() string {
	switch b {
	case Closure:
		return "closure"
	case Bytecode:
		return "bytecode"
	}
	return fmt.Sprintf("backend(%d)", int(b))
}

// Hook receives fine-grained execution events; the debugger installs one to
// implement stepping, breakpoints, and watchpoints. All callbacks run
// synchronously on the simulation goroutine.
type Hook interface {
	// OnRuleStart fires when a scheduled rule begins executing.
	OnRuleStart(rule int)
	// OnRuleEnd fires when a rule commits (fired=true) or aborts.
	OnRuleEnd(rule int, fired bool)
	// OnOp fires at each register read/write and each abort site. For
	// reads and writes, value is the transferred value and ok reports
	// whether the operation's semantic checks passed; for fail nodes, reg
	// is -1 and ok is false.
	OnOp(nodeID int, reg int, value uint64, ok bool)
}

// Options configures New.
type Options struct {
	// Level is the optimization level (default LStatic: the full paper
	// configuration).
	Level Level
	// Backend selects closures or bytecode (default Closure).
	Backend Backend
	// Coverage enables per-node execution counters (the Gcov analogue).
	Coverage bool
	// Profile enables per-rule attempt/commit counters (cheaper than full
	// coverage; the first stop in a performance-debugging session).
	Profile bool
	// Hook, when non-nil, receives execution events. Compiling with a hook
	// (or coverage) costs performance; benchmarks leave both off.
	Hook Hook
}

// DefaultOptions is the full paper configuration.
func DefaultOptions() Options { return Options{Level: LStatic, Backend: Closure} }

package cuttlesim

import (
	"cuttlego/internal/analysis"
	"cuttlego/internal/ast"
)

// Activity-driven scheduling (LActivity): the §3.3 analysis already knows
// each rule's read footprint; this layer uses it to stop re-executing rules
// that are guaranteed to abort again. The protocol:
//
//   - Every commit that writes register r stamps lastWrite[r] with a
//     monotonically increasing generation counter (one bump per commit, so
//     within-cycle ordering is preserved). SetReg and Restore stamp too.
//     Stamping is elided while no rule is parked — the generation still
//     advances, so every unstamped write stays strictly below any future
//     park generation. That is sound because a commit can only matter to a
//     rule that is *already* parked when the commit happens: a rule that
//     parks later in the cycle made its abort decision from values that
//     already included the earlier commit. On busy designs (nothing ever
//     parks) this reduces the per-commit cost to one branch and one
//     increment.
//   - When a skippable rule aborts at an explicit fail node, it is parked
//     with the current generation. While parked, the rule is skipped — its
//     schedule slot costs one dirty-set scan instead of an execution.
//   - A parked rule is re-attempted as soon as any register in its ReadSet
//     carries a stamp at or after the park generation.
//
// Soundness: a parked rule's last abort happened at an explicit fail node,
// so every value it observed on the way there came from a read that
// *succeeded* — and a successful rd0/rd1 returns exactly the committed
// value of its register as of that moment (rd0 would have failed had the
// register been written earlier in the cycle; rd1 returns the accumulated
// value, which equals the committed-so-far value between rules). Any later
// commit to one of those registers stamps a generation at or after the park
// point and wakes the rule. On a skipped cycle the rule would therefore
// read identical values and abort at the same fail node — or abort even
// earlier on a read-write conflict — so skipping never changes behaviour.
// Two rule classes are excluded statically (analysis.RuleInfo.Skippable):
// rules with external calls, whose results and side effects are not
// functions of register state, and rules reading Goldbergian registers,
// whose committed value becomes visible at end-of-cycle rather than commit
// time. Conflict-induced aborts never park: the conflicting operations of
// earlier rules are not tracked by dirty bits, only committed values are.
type activity struct {
	// gen is the next stamp; it starts at 1 so a parkGen of 0 can mean
	// "not parked".
	gen       uint64
	lastWrite []uint64 // per register: generation of the last commit touching it
	parkGen   []uint64 // per schedule position: park generation, 0 = running
	sens      [][]int  // per schedule position: the rule's ReadSet
	writes    [][]int  // per schedule position: the rule's WriteSet (to stamp on commit)
	skippable []bool   // per schedule position

	parkedCount int
	// quiesceGen is the generation observed at the end of the last cycle in
	// which every schedule position was skipped. While it equals gen the
	// design is quiescent: no rule can run and no state can change, so
	// Advance may fast-forward whole cycles.
	quiesceGen uint64
}

// newActivity builds the scheduler state; it returns nil when any observer
// (hook, coverage) is attached, since skipping a rule would hide the
// attempt those observers are owed.
func newActivity(d *ast.Design, an *analysis.Result, opts Options) *activity {
	if opts.Level < LActivity || opts.Hook != nil || opts.Coverage {
		return nil
	}
	sched := d.ScheduledRules()
	a := &activity{
		gen:       1,
		lastWrite: make([]uint64, len(d.Registers)),
		parkGen:   make([]uint64, len(sched)),
		sens:      make([][]int, len(sched)),
		writes:    make([][]int, len(sched)),
		skippable: make([]bool, len(sched)),
	}
	for si, ri := range sched {
		info := &an.Rules[ri]
		a.sens[si] = info.ReadSet
		a.writes[si] = info.WriteSet
		a.skippable[si] = info.Skippable
	}
	return a
}

// touch stamps one register (SetReg, Restore: the testbench wrote it).
func (a *activity) touch(reg int) {
	a.lastWrite[reg] = a.gen
	a.gen++
}

// commit stamps the write set of the rule at schedule position si. The
// stamping loop only runs while some rule is parked (see the protocol
// comment above); the generation always advances.
func (a *activity) commit(si int) {
	if a.parkedCount > 0 {
		for _, r := range a.writes[si] {
			a.lastWrite[r] = a.gen
		}
	}
	a.gen++
}

// park records that position si aborted at a fail node under the current
// generation.
func (a *activity) park(si int) {
	a.parkGen[si] = a.gen
	a.parkedCount++
}

// unpark returns position si to normal scheduling.
func (a *activity) unpark(si int) {
	a.parkGen[si] = 0
	a.parkedCount--
}

// dirtySince reports whether any register in position si's read set was
// stamped at or after its park generation.
func (a *activity) dirtySince(si int) bool {
	pg := a.parkGen[si]
	for _, r := range a.sens[si] {
		if a.lastWrite[r] >= pg {
			return true
		}
	}
	return false
}

// quiescent reports whether every schedule position is parked and nothing
// has been dirtied since that state was last observed by a full cycle.
func (a *activity) quiescent(positions int) bool {
	return a.parkedCount == positions && a.quiesceGen == a.gen
}

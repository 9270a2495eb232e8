package cuttlesim

import (
	"cuttlego/internal/analysis"
	"cuttlego/internal/ast"
)

// Read-write set bits. The rd0 bit is recorded below LStatic to mirror the
// paper's naive model faithfully; nothing checks it in a sequential
// execution, which is exactly why LStatic stops recording it.
const (
	fRd0 uint8 = 1 << iota
	fRd1
	fWr0
	fWr1
)

const fWrAny = fWr0 | fWr1

// naiveEntry is the LNaive log entry: read-write set interleaved with data
// fields, the layout whose clearing cost motivates LSplitSets.
type naiveEntry struct {
	flags        uint8
	data0, data1 uint64
}

// machine holds the transactional state shared by both backends. Field use
// varies by level:
//
//	LNaive:        boc + nL (cycle log) + nR (rule log)
//	LSplitSets:    boc + flagsL/dL* (cycle log) + flagsA/dA* (rule log)
//	LAccumulate+:  flagsA/dA* hold the accumulated log L++ℓ
//	LMergeData+:   dL0/dA0 are the merged data cells; Goldberg registers
//	               keep dL1/dA1 as exact data1 fields
//	LNoBOC+:       boc survives only for Goldberg registers; dL0 holds the
//	               committed register values
//	LStatic:       flags exist only for tracked (unsafe or Goldberg)
//	               registers; commits/rollbacks follow rule footprints
type machine struct {
	d     *ast.Design
	an    *analysis.Result
	level Level
	nregs int

	nL, nR []naiveEntry

	flagsL, flagsA []uint8
	dL0, dL1       []uint64
	dA0, dA1       []uint64
	boc            []uint64

	goldberg     []bool
	goldbergRegs []int
	hasGoldberg  bool

	// LStatic bookkeeping.
	track       []bool
	trackedRegs []int
	clearWhole  bool // tracked set is dense: memclr beats the index loop
	commits     []commitPlan

	// LActivity bookkeeping (nil below LActivity or under observers).
	act *activity

	locals []uint64
	stack  []uint64 // bytecode operand stack
	fired  []bool

	failClean bool
	// failGuard distinguishes the two abort causes: true when the abort
	// came from an explicit fail node (a pure function of the values read,
	// so the activity scheduler may park the rule), false when a read-write
	// check failed (a transient conflict with an earlier rule this cycle).
	failGuard bool
	cycle     uint64
	cov       []uint64
}

// commitPlan is the per-scheduled-rule footprint: which registers' flags
// and data a commit or rollback must copy. Full selects the whole-log
// memcpy fallback the paper uses for rules touching most of the design.
type commitPlan struct {
	full      bool
	flagRegs  []int // tracked registers in the rule's footprint
	dataRegs  []int // registers in the rule's write set
	data1Regs []int // Goldberg registers in the write set
}

func newMachine(d *ast.Design, an *analysis.Result, opts Options) *machine {
	n := len(d.Registers)
	m := &machine{d: d, an: an, level: opts.Level, nregs: n}
	m.fired = make([]bool, len(d.Rules))
	m.goldberg = make([]bool, n)
	for r := range an.Regs {
		if an.Regs[r].Goldberg {
			m.goldberg[r] = true
			m.goldbergRegs = append(m.goldbergRegs, r)
			m.hasGoldberg = true
		}
	}
	if opts.Coverage {
		m.cov = make([]uint64, d.NodeCount)
	}

	if m.level == LNaive {
		m.nL = make([]naiveEntry, n)
		m.nR = make([]naiveEntry, n)
	} else {
		m.flagsL = make([]uint8, n)
		m.flagsA = make([]uint8, n)
		m.dL0 = make([]uint64, n)
		m.dA0 = make([]uint64, n)
		if m.level < LMergeData || m.hasGoldberg {
			m.dL1 = make([]uint64, n)
			m.dA1 = make([]uint64, n)
		}
	}
	m.boc = make([]uint64, n)
	for r, reg := range d.Registers {
		m.boc[r] = reg.Init.Val
		if m.level >= LNoBOC {
			m.dL0[r] = reg.Init.Val
			m.dA0[r] = reg.Init.Val
		}
	}

	if m.level >= LStatic {
		m.track = make([]bool, n)
		for r := range an.Regs {
			if !an.Regs[r].Safe || an.Regs[r].Goldberg {
				m.track[r] = true
				m.trackedRegs = append(m.trackedRegs, r)
			}
		}
		m.clearWhole = len(m.trackedRegs) > n/2
		m.commits = make([]commitPlan, len(d.Schedule))
		for si, ri := range d.ScheduledRules() {
			m.commits[si] = m.planCommit(&an.Rules[ri])
		}
	}
	m.act = newActivity(d, an, opts)
	return m
}

func (m *machine) planCommit(info *analysis.RuleInfo) commitPlan {
	limit := m.nregs / 2
	if limit < 32 {
		limit = 32
	}
	if len(info.Footprint) > limit {
		return commitPlan{full: true}
	}
	p := commitPlan{}
	for _, r := range info.Footprint {
		if m.track[r] {
			p.flagRegs = append(p.flagRegs, r)
		}
	}
	for _, r := range info.WriteSet {
		p.dataRegs = append(p.dataRegs, r)
		if m.goldberg[r] {
			p.data1Regs = append(p.data1Regs, r)
		}
	}
	return p
}

// --- port operations -----------------------------------------------------

// read0 implements rd0: fails if the cycle log has a write at any port;
// returns the beginning-of-cycle value.
func (m *machine) read0(reg int) (uint64, bool) {
	switch m.level {
	case LNaive:
		if m.nL[reg].flags&fWrAny != 0 {
			return 0, false
		}
		m.nR[reg].flags |= fRd0
		return m.boc[reg], true
	case LSplitSets, LAccumulate, LResetOnFail, LMergeData:
		if m.flagsL[reg]&fWrAny != 0 {
			return 0, false
		}
		m.flagsA[reg] |= fRd0
		return m.boc[reg], true
	case LNoBOC:
		if m.flagsL[reg]&fWrAny != 0 {
			return 0, false
		}
		m.flagsA[reg] |= fRd0
		if m.goldberg[reg] {
			return m.boc[reg], true
		}
		return m.dL0[reg], true
	default: // LStatic: no rd0 recording
		if m.track[reg] {
			if m.flagsL[reg]&fWrAny != 0 {
				return 0, false
			}
			if m.goldberg[reg] {
				return m.boc[reg], true
			}
		}
		return m.dL0[reg], true
	}
}

// read1 implements rd1: fails if the cycle log has a write at port 1;
// returns the most recent port-0 write from either log, else the
// beginning-of-cycle value.
func (m *machine) read1(reg int) (uint64, bool) {
	switch m.level {
	case LNaive:
		if m.nL[reg].flags&fWr1 != 0 {
			return 0, false
		}
		m.nR[reg].flags |= fRd1
		if m.nR[reg].flags&fWr0 != 0 {
			return m.nR[reg].data0, true
		}
		if m.nL[reg].flags&fWr0 != 0 {
			return m.nL[reg].data0, true
		}
		return m.boc[reg], true
	case LSplitSets:
		if m.flagsL[reg]&fWr1 != 0 {
			return 0, false
		}
		m.flagsA[reg] |= fRd1
		if m.flagsA[reg]&fWr0 != 0 {
			return m.dA0[reg], true
		}
		if m.flagsL[reg]&fWr0 != 0 {
			return m.dL0[reg], true
		}
		return m.boc[reg], true
	case LAccumulate, LResetOnFail, LMergeData:
		if m.flagsL[reg]&fWr1 != 0 {
			return 0, false
		}
		m.flagsA[reg] |= fRd1
		if m.flagsA[reg]&fWr0 != 0 {
			return m.dA0[reg], true
		}
		return m.boc[reg], true
	case LNoBOC:
		if m.flagsL[reg]&fWr1 != 0 {
			return 0, false
		}
		m.flagsA[reg] |= fRd1
		if m.goldberg[reg] {
			if m.flagsA[reg]&fWr0 != 0 {
				return m.dA0[reg], true
			}
			return m.boc[reg], true
		}
		return m.dA0[reg], true
	default: // LStatic
		if m.track[reg] {
			if m.flagsL[reg]&fWr1 != 0 {
				return 0, false
			}
			m.flagsA[reg] |= fRd1
			if m.goldberg[reg] {
				if m.flagsA[reg]&fWr0 != 0 {
					return m.dA0[reg], true
				}
				return m.boc[reg], true
			}
		}
		return m.dA0[reg], true
	}
}

// write0 implements wr0: fails on a prior rd1 or write at either port in
// the combined logs.
func (m *machine) write0(reg int, v uint64) bool {
	switch m.level {
	case LNaive:
		if (m.nL[reg].flags|m.nR[reg].flags)&(fRd1|fWr0|fWr1) != 0 {
			return false
		}
		m.nR[reg].flags |= fWr0
		m.nR[reg].data0 = v
	case LSplitSets:
		if (m.flagsL[reg]|m.flagsA[reg])&(fRd1|fWr0|fWr1) != 0 {
			return false
		}
		m.flagsA[reg] |= fWr0
		m.dA0[reg] = v
	case LAccumulate, LResetOnFail, LMergeData, LNoBOC:
		if m.flagsA[reg]&(fRd1|fWr0|fWr1) != 0 {
			return false
		}
		m.flagsA[reg] |= fWr0
		m.dA0[reg] = v
	default: // LStatic
		if m.track[reg] {
			if m.flagsA[reg]&(fRd1|fWr0|fWr1) != 0 {
				return false
			}
			m.flagsA[reg] |= fWr0
		}
		m.dA0[reg] = v
	}
	return true
}

// write1 implements wr1: fails on another wr1 in the combined logs.
func (m *machine) write1(reg int, v uint64) bool {
	switch m.level {
	case LNaive:
		if (m.nL[reg].flags|m.nR[reg].flags)&fWr1 != 0 {
			return false
		}
		m.nR[reg].flags |= fWr1
		m.nR[reg].data1 = v
	case LSplitSets:
		if (m.flagsL[reg]|m.flagsA[reg])&fWr1 != 0 {
			return false
		}
		m.flagsA[reg] |= fWr1
		m.dA1[reg] = v
	case LAccumulate, LResetOnFail:
		if m.flagsA[reg]&fWr1 != 0 {
			return false
		}
		m.flagsA[reg] |= fWr1
		m.dA1[reg] = v
	case LMergeData, LNoBOC:
		if m.flagsA[reg]&fWr1 != 0 {
			return false
		}
		m.flagsA[reg] |= fWr1
		if m.goldberg[reg] {
			m.dA1[reg] = v
		} else {
			m.dA0[reg] = v
		}
	default: // LStatic
		if m.track[reg] {
			if m.flagsA[reg]&fWr1 != 0 {
				return false
			}
			m.flagsA[reg] |= fWr1
		}
		if m.goldberg[reg] {
			m.dA1[reg] = v
		} else {
			m.dA0[reg] = v
		}
	}
	return true
}

// --- cycle scaffolding ----------------------------------------------------

func (m *machine) beginCycle() {
	switch m.level {
	case LNaive:
		for i := range m.nL {
			m.nL[i] = naiveEntry{}
		}
	case LSplitSets, LAccumulate:
		clearBytes(m.flagsL)
	case LResetOnFail, LMergeData, LNoBOC:
		clearBytes(m.flagsL)
		clearBytes(m.flagsA)
	default: // LStatic
		if m.clearWhole {
			clearBytes(m.flagsL)
			clearBytes(m.flagsA)
		} else {
			for _, r := range m.trackedRegs {
				m.flagsL[r] = 0
				m.flagsA[r] = 0
			}
		}
	}
}

func (m *machine) beginRule() {
	switch m.level {
	case LNaive:
		for i := range m.nR {
			m.nR[i] = naiveEntry{}
		}
	case LSplitSets:
		clearBytes(m.flagsA)
	case LAccumulate:
		copy(m.flagsA, m.flagsL)
		copy(m.dA0, m.dL0)
		copy(m.dA1, m.dL1)
	}
	// LResetOnFail and above: nothing — the invariant guarantees the
	// accumulated log already matches the cycle log here.
}

// commitRule merges or copies the successful rule's log into the cycle log.
// si is the schedule position (for LStatic footprints).
func (m *machine) commitRule(si int) {
	switch m.level {
	case LNaive:
		for i := range m.nL {
			r := &m.nR[i]
			if r.flags == 0 {
				continue
			}
			l := &m.nL[i]
			l.flags |= r.flags
			if r.flags&fWr0 != 0 {
				l.data0 = r.data0
			}
			if r.flags&fWr1 != 0 {
				l.data1 = r.data1
			}
		}
	case LSplitSets:
		for i := range m.flagsL {
			f := m.flagsA[i]
			if f == 0 {
				continue
			}
			m.flagsL[i] |= f
			if f&fWr0 != 0 {
				m.dL0[i] = m.dA0[i]
			}
			if f&fWr1 != 0 {
				m.dL1[i] = m.dA1[i]
			}
		}
	case LAccumulate, LResetOnFail, LMergeData, LNoBOC:
		copy(m.flagsL, m.flagsA)
		copy(m.dL0, m.dA0)
		if m.dL1 != nil {
			copy(m.dL1, m.dA1)
		}
	default: // LStatic
		p := &m.commits[si]
		if p.full {
			copy(m.flagsL, m.flagsA)
			copy(m.dL0, m.dA0)
			if m.dL1 != nil {
				copy(m.dL1, m.dA1)
			}
			return
		}
		for _, r := range p.flagRegs {
			m.flagsL[r] = m.flagsA[r]
		}
		for _, r := range p.dataRegs {
			m.dL0[r] = m.dA0[r]
		}
		for _, r := range p.data1Regs {
			m.dL1[r] = m.dA1[r]
		}
	}
}

// failRule undoes the aborted rule's tentative effects where the level's
// invariants require it.
func (m *machine) failRule(si int) {
	switch m.level {
	case LNaive, LSplitSets, LAccumulate:
		// Nothing: the rule log is rebuilt on the next rule's entry.
	case LResetOnFail, LMergeData, LNoBOC:
		copy(m.flagsA, m.flagsL)
		copy(m.dA0, m.dL0)
		if m.dA1 != nil {
			copy(m.dA1, m.dL1)
		}
	default: // LStatic
		if m.failClean {
			return
		}
		p := &m.commits[si]
		if p.full {
			copy(m.flagsA, m.flagsL)
			copy(m.dA0, m.dL0)
			if m.dA1 != nil {
				copy(m.dA1, m.dL1)
			}
			return
		}
		for _, r := range p.flagRegs {
			m.flagsA[r] = m.flagsL[r]
		}
		for _, r := range p.dataRegs {
			m.dA0[r] = m.dL0[r]
		}
		for _, r := range p.data1Regs {
			m.dA1[r] = m.dL1[r]
		}
	}
}

// endCycle commits the cycle log into the architectural state. From LNoBOC
// on this loop disappears except for Goldberg registers.
func (m *machine) endCycle() {
	switch m.level {
	case LNaive:
		for i := range m.nL {
			switch {
			case m.nL[i].flags&fWr1 != 0:
				m.boc[i] = m.nL[i].data1
			case m.nL[i].flags&fWr0 != 0:
				m.boc[i] = m.nL[i].data0
			}
		}
	case LSplitSets, LAccumulate, LResetOnFail:
		for i := range m.flagsL {
			switch {
			case m.flagsL[i]&fWr1 != 0:
				m.boc[i] = m.dL1[i]
			case m.flagsL[i]&fWr0 != 0:
				m.boc[i] = m.dL0[i]
			}
		}
	case LMergeData:
		for i := range m.flagsL {
			f := m.flagsL[i]
			if f&fWrAny == 0 {
				continue
			}
			if m.goldberg[i] && f&fWr1 != 0 {
				m.boc[i] = m.dL1[i]
			} else {
				m.boc[i] = m.dL0[i]
			}
		}
	default: // LNoBOC, LStatic
		for _, i := range m.goldbergRegs {
			f := m.flagsL[i]
			switch {
			case f&fWr1 != 0:
				m.boc[i] = m.dL1[i]
			case f&fWr0 != 0:
				m.boc[i] = m.dL0[i]
			}
		}
	}
}

// --- architectural state access -------------------------------------------

func (m *machine) regValue(reg int) uint64 {
	if m.level >= LNoBOC && !m.goldberg[reg] {
		return m.dL0[reg]
	}
	return m.boc[reg]
}

func (m *machine) setRegValue(reg int, v uint64) {
	if m.act != nil {
		m.act.touch(reg)
	}
	if m.level >= LNoBOC && !m.goldberg[reg] {
		m.dL0[reg] = v
		m.dA0[reg] = v
		return
	}
	m.boc[reg] = v
}

func clearBytes(b []uint8) {
	for i := range b {
		b[i] = 0
	}
}

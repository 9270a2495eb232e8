// Package interp is the reference interpreter for Kôika designs: a direct,
// unoptimized transcription of the log-based one-rule-at-a-time semantics
// (the "naive model" of the paper's §3.1). It keeps three pieces of data —
// beginning-of-cycle register values, a cycle log, and a rule log, each log
// holding per-register read/write sets interleaved with data0/data1 fields —
// and implements every check exactly as the semantics state them.
//
// It is deliberately slow. Its role is to be obviously correct: every other
// pipeline in this module (the Cuttlesim optimization ladder, the circuit
// compiler plus RTL simulator) is tested for cycle-for-cycle equivalence
// against it.
package interp

import (
	"fmt"

	"cuttlego/internal/ast"
	"cuttlego/internal/bits"
	"cuttlego/internal/diag"
	"cuttlego/internal/sim"
)

// regLog is the per-register entry of a log: the read/write set plus the
// data written at each port. In the naive model data and flags are stored
// together — precisely the layout §3.2's first optimization splits apart.
type regLog struct {
	rd0, rd1, wr0, wr1 bool
	data0, data1       bits.Bits
}

// Simulator is the reference engine.
type Simulator struct {
	d     *ast.Design
	sched []int

	state    []bits.Bits // beginning-of-cycle register values
	cycleLog []regLog    // L
	ruleLog  []regLog    // ℓ

	cycle uint64
	fired []bool
}

var _ sim.Engine = (*Simulator)(nil)
var _ sim.Snapshotter = (*Simulator)(nil)
var _ sim.RowReader = (*Simulator)(nil)

// New builds a reference simulator for a checked design.
func New(d *ast.Design) (_ *Simulator, err error) {
	defer diag.Guard("interp: build simulator", &err)
	if !d.Checked() {
		return nil, fmt.Errorf("interp: design %q is not checked", d.Name)
	}
	s := &Simulator{
		d:        d,
		sched:    d.ScheduledRules(),
		state:    make([]bits.Bits, len(d.Registers)),
		cycleLog: make([]regLog, len(d.Registers)),
		ruleLog:  make([]regLog, len(d.Registers)),
		fired:    make([]bool, len(d.Rules)),
	}
	for i, r := range d.Registers {
		s.state[i] = r.Init
	}
	return s, nil
}

// Design implements sim.Engine.
func (s *Simulator) Design() *ast.Design { return s.d }

// CycleCount implements sim.Engine.
func (s *Simulator) CycleCount() uint64 { return s.cycle }

// Reg implements sim.Engine.
func (s *Simulator) Reg(name string) bits.Bits { return s.state[s.d.RegIndex(name)] }

// ReadRow implements sim.RowReader.
func (s *Simulator) ReadRow(dst []uint64) {
	for i, v := range s.state {
		dst[i] = v.Val
	}
}

// SetReg implements sim.Engine.
func (s *Simulator) SetReg(name string, v bits.Bits) {
	i := s.d.RegIndex(name)
	if v.Width != s.state[i].Width {
		panic(fmt.Sprintf("interp: SetReg %s width %d != %d", name, v.Width, s.state[i].Width))
	}
	s.state[i] = v
}

// RuleFired implements sim.Engine.
func (s *Simulator) RuleFired(rule string) bool { return s.fired[s.d.RuleIndex(rule)] }

// ReadFired implements sim.RowReader.
func (s *Simulator) ReadFired(dst []uint64) { sim.PackFired(dst, s.fired) }

// Snapshot implements sim.Snapshotter.
func (s *Simulator) Snapshot() sim.Snapshot {
	regs := make([]bits.Bits, len(s.state))
	copy(regs, s.state)
	return sim.Snapshot{Cycle: s.cycle, Regs: regs}
}

// Restore implements sim.Snapshotter.
func (s *Simulator) Restore(snap sim.Snapshot) {
	copy(s.state, snap.Regs)
	s.cycle = snap.Cycle
	for i := range s.fired {
		s.fired[i] = false
	}
}

// Cycle implements sim.Engine: each cycle starts with an empty cycle log;
// rules execute one by one, each building a rule log that is appended to
// the cycle log on success and discarded on failure; at the end of the
// cycle the registers are updated from the accumulated cycle log.
func (s *Simulator) Cycle() {
	for i := range s.cycleLog {
		s.cycleLog[i] = regLog{}
	}
	for _, ri := range s.sched {
		for i := range s.ruleLog {
			s.ruleLog[i] = regLog{}
		}
		ok := s.eval(s.d.Rules[ri].Body, nil) != nil
		s.fired[ri] = ok
		if !ok {
			continue
		}
		// Commit: or the read-write sets together; pull written data over.
		for i := range s.cycleLog {
			l, r := &s.cycleLog[i], &s.ruleLog[i]
			l.rd0 = l.rd0 || r.rd0
			l.rd1 = l.rd1 || r.rd1
			if r.wr0 {
				l.wr0 = true
				l.data0 = r.data0
			}
			if r.wr1 {
				l.wr1 = true
				l.data1 = r.data1
			}
		}
	}
	// End of cycle: data1 wins over data0 wins over the old state.
	for i := range s.state {
		switch {
		case s.cycleLog[i].wr1:
			s.state[i] = s.cycleLog[i].data1
		case s.cycleLog[i].wr0:
			s.state[i] = s.cycleLog[i].data0
		}
	}
	s.cycle++
}

// env is the let-binding environment; Assign mutates entries in place.
type env struct {
	name string
	val  bits.Bits
	prev *env
}

func (e *env) find(name string) *env {
	for p := e; p != nil; p = p.prev {
		if p.name == name {
			return p
		}
	}
	panic("interp: unbound variable " + name + " (checker should have caught this)")
}

// eval evaluates a node. It returns nil when the rule aborts; otherwise a
// pointer to the node's value.
func (s *Simulator) eval(n *ast.Node, e *env) *bits.Bits {
	switch n.Kind {
	case ast.KConst:
		v := n.Val
		return &v

	case ast.KVar:
		v := e.find(n.Name).val
		return &v

	case ast.KLet:
		init := s.eval(n.A, e)
		if init == nil {
			return nil
		}
		return s.eval(n.B, &env{name: n.Name, val: *init, prev: e})

	case ast.KAssign:
		v := s.eval(n.A, e)
		if v == nil {
			return nil
		}
		e.find(n.Name).val = *v
		u := bits.Zero(0)
		return &u

	case ast.KSeq:
		var last *bits.Bits
		for _, it := range n.Items {
			last = s.eval(it, e)
			if last == nil {
				return nil
			}
		}
		return last

	case ast.KIf:
		c := s.eval(n.A, e)
		if c == nil {
			return nil
		}
		if c.Bool() {
			return s.eval(n.B, e)
		}
		if n.C == nil {
			u := bits.Zero(0)
			return &u
		}
		return s.eval(n.C, e)

	case ast.KRead:
		return s.read(s.d.RegIndex(n.Name), n.Port)

	case ast.KWrite:
		v := s.eval(n.A, e)
		if v == nil {
			return nil
		}
		return s.write(s.d.RegIndex(n.Name), n.Port, *v)

	case ast.KFail:
		return nil

	case ast.KUnop:
		a := s.eval(n.A, e)
		if a == nil {
			return nil
		}
		var v bits.Bits
		switch n.Op {
		case ast.OpNot:
			v = a.Not()
		case ast.OpSignExtend:
			v = a.SignExtend(n.Wid)
		case ast.OpZeroExtend:
			v = a.ZeroExtend(n.Wid)
		case ast.OpSlice:
			var err error
			if v, err = a.TryExtract(n.Lo, n.Wid); err != nil {
				diag.Invariantf("interp: slice", "checker passed a bad slice: %v", err)
			}
		}
		return &v

	case ast.KBinop:
		a := s.eval(n.A, e)
		if a == nil {
			return nil
		}
		b := s.eval(n.B, e)
		if b == nil {
			return nil
		}
		v := EvalBinop(n.Op, *a, *b)
		return &v

	case ast.KExtCall:
		args := make([]bits.Bits, len(n.Items))
		for i, it := range n.Items {
			a := s.eval(it, e)
			if a == nil {
				return nil
			}
			args[i] = *a
		}
		f := s.d.ExtFuns[s.d.ExtIndex(n.Name)]
		v := f.Fn(args)
		if v.Width != f.Ret.BitWidth() {
			panic(fmt.Sprintf("interp: extfun %s returned %d bits, want %d", n.Name, v.Width, f.Ret.BitWidth()))
		}
		return &v

	case ast.KField:
		a := s.eval(n.A, e)
		if a == nil {
			return nil
		}
		v, err := a.TryExtract(n.Lo, n.Wid)
		if err != nil {
			diag.Invariantf("interp: field", "checker passed a bad field slice: %v", err)
		}
		return &v

	case ast.KSetField:
		a := s.eval(n.A, e)
		if a == nil {
			return nil
		}
		b := s.eval(n.B, e)
		if b == nil {
			return nil
		}
		v := a.SetSlice(n.Lo, *b)
		return &v

	case ast.KPack:
		st := n.Ty.(*ast.StructType)
		out := bits.Zero(st.BitWidth())
		for i, it := range n.Items {
			fv := s.eval(it, e)
			if fv == nil {
				return nil
			}
			out = out.SetSlice(st.Offset(st.Fields[i].Name), *fv)
		}
		return &out

	case ast.KSwitch:
		scrut := s.eval(n.A, e)
		if scrut == nil {
			return nil
		}
		for i := 0; i+1 < len(n.Items); i += 2 {
			if n.Items[i].Val == *scrut {
				return s.eval(n.Items[i+1], e)
			}
		}
		return s.eval(n.C, e)
	}
	panic(fmt.Sprintf("interp: unknown node kind %v", n.Kind))
}

// read implements the paper's port semantics verbatim.
func (s *Simulator) read(reg int, port ast.Port) *bits.Bits {
	L, l := &s.cycleLog[reg], &s.ruleLog[reg]
	if port == ast.P0 {
		// A read at port 0 checks for writes at any port in the cycle log
		// and returns the beginning-of-cycle value of the register.
		if L.wr0 || L.wr1 {
			return nil
		}
		l.rd0 = true
		v := s.state[reg]
		return &v
	}
	// A read at port 1 checks for writes at port 1 in the cycle log and
	// returns the most recent write0 value from either log, falling back to
	// the beginning-of-cycle state.
	if L.wr1 {
		return nil
	}
	l.rd1 = true
	var v bits.Bits
	switch {
	case l.wr0:
		v = l.data0
	case L.wr0:
		v = L.data0
	default:
		v = s.state[reg]
	}
	return &v
}

// write implements the paper's port semantics verbatim.
func (s *Simulator) write(reg int, port ast.Port, v bits.Bits) *bits.Bits {
	L, l := &s.cycleLog[reg], &s.ruleLog[reg]
	if port == ast.P0 {
		// A write at port 0 checks for reads at port 1 and writes at port 0
		// or 1 in both logs.
		if L.rd1 || l.rd1 || L.wr0 || l.wr0 || L.wr1 || l.wr1 {
			return nil
		}
		l.wr0 = true
		l.data0 = v
	} else {
		// A write at port 1 checks for other writes at port 1 in both logs.
		if L.wr1 || l.wr1 {
			return nil
		}
		l.wr1 = true
		l.data1 = v
	}
	u := bits.Zero(0)
	return &u
}

// EvalBinop applies a binary operator to two values. It is shared with the
// other pipelines so that operator semantics live in exactly one place.
func EvalBinop(op ast.Op, a, b bits.Bits) bits.Bits {
	switch op {
	case ast.OpAdd:
		return a.Add(b)
	case ast.OpSub:
		return a.Sub(b)
	case ast.OpMul:
		return a.Mul(b)
	case ast.OpAnd:
		return a.And(b)
	case ast.OpOr:
		return a.Or(b)
	case ast.OpXor:
		return a.Xor(b)
	case ast.OpEq:
		return a.Eq(b)
	case ast.OpNeq:
		return a.Neq(b)
	case ast.OpLtu:
		return a.Ltu(b)
	case ast.OpLts:
		return a.Lts(b)
	case ast.OpGeu:
		return a.Geu(b)
	case ast.OpGes:
		return a.Ges(b)
	case ast.OpSll:
		return a.Sll(b)
	case ast.OpSrl:
		return a.Srl(b)
	case ast.OpSra:
		return a.Sra(b)
	case ast.OpConcat:
		v, err := a.TryConcat(b)
		if err != nil {
			diag.Invariantf("interp: concat", "checker passed a bad concat: %v", err)
		}
		return v
	}
	panic(fmt.Sprintf("interp: unknown binop %v", op))
}

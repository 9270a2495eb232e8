// Package rtlsim is this module's stand-in for Verilator: a cycle-based
// simulator of the combinational netlists produced by package circuit. Like
// a cycle-based RTL simulator it levelizes the design once (the netlist is
// already in topological order) and then evaluates every node on every
// cycle — which is exactly the cost model whose consequences the paper
// measures: the hardware-oriented netlist computes all rules every cycle
// and pays for the scheduler circuits, while Cuttlesim's sequential model
// exits early.
//
// Three execution backends are provided, mirroring the paper's Figure 3
// compiler sweep: a switch-dispatch interpreter over the netlist, a
// compiled form where every net becomes a Go closure, and a fused form
// that partitions the levelized plan into basic-block superops of
// pre-decoded ops (see fused.go).
package rtlsim

import (
	"fmt"

	"cuttlego/internal/ast"
	"cuttlego/internal/bits"
	"cuttlego/internal/circuit"
	"cuttlego/internal/diag"
	"cuttlego/internal/sim"
)

// Backend selects the evaluation engine.
type Backend int

// Backends.
const (
	// Switch interprets the netlist with one switch per node.
	Switch Backend = iota
	// Closure precompiles one closure per node.
	Closure
	// Fused pre-decodes the plan into basic-block superops: one closure
	// per block running a straight-line slice of decoded ops over the flat
	// vals array, with per-op constants (masks, shifts) precomputed and
	// single-use selector/inverter nets fused into their consumers.
	Fused
)

func (b Backend) String() string {
	switch b {
	case Switch:
		return "switch"
	case Closure:
		return "closure"
	case Fused:
		return "fused"
	}
	return fmt.Sprintf("backend(%d)", int(b))
}

// Options configures New.
type Options struct {
	Backend Backend
}

// Simulator evaluates a compiled netlist cycle by cycle.
type Simulator struct {
	ckt    *circuit.Circuit
	d      *ast.Design
	opts   Options
	state  []uint64 // register values
	vals   []uint64 // per-net values, reused across cycles
	plan   []int    // nets re-evaluated each cycle, topological order
	fns    []func() // closure backend: one evaluator per planned net
	blocks []func() // fused backend: one superop block per closure
	regs   []int    // NRegOut nets, refreshed at the top of each cycle
	sched  []int
	fired  []bool
	cycle  uint64

	// extBufs holds one reusable argument buffer per external-call net,
	// indexed by net id (flat, so the per-cycle hot path never touches a
	// map). Non-ext slots stay nil.
	extBufs [][]bits.Bits
}

var _ sim.Engine = (*Simulator)(nil)
var _ sim.Snapshotter = (*Simulator)(nil)

// New builds a simulator for a compiled circuit.
func New(ckt *circuit.Circuit, opts Options) (_ *Simulator, err error) {
	defer diag.Guard("rtlsim: build simulator", &err)
	if opts.Backend < Switch || opts.Backend > Fused {
		return nil, fmt.Errorf("rtlsim: unknown backend %v", opts.Backend)
	}
	d := ckt.Design
	s := &Simulator{
		ckt:     ckt,
		d:       d,
		opts:    opts,
		state:   make([]uint64, len(d.Registers)),
		vals:    make([]uint64, len(ckt.Nets)),
		sched:   d.ScheduledRules(),
		fired:   make([]bool, len(d.Rules)),
		extBufs: make([][]bits.Bits, len(ckt.Nets)),
	}
	for i, r := range d.Registers {
		s.state[i] = r.Init.Val
	}
	for i, n := range ckt.Nets {
		switch n.Kind {
		case circuit.NConst:
			s.vals[i] = n.Val // evaluated once
		case circuit.NRegOut:
			s.regs = append(s.regs, i)
		case circuit.NExt:
			s.extBufs[i] = make([]bits.Bits, len(n.Args))
			s.plan = append(s.plan, i)
		default:
			s.plan = append(s.plan, i)
		}
	}
	switch {
	case opts.Backend == Closure:
		s.fns = make([]func(), len(s.plan))
		for pi, ni := range s.plan {
			s.fns[pi] = s.compileNet(ni)
		}
	case opts.Backend == Fused:
		s.blocks = s.compileFused()
	}
	return s, nil
}

// MustNew is New for known-good circuits.
func MustNew(ckt *circuit.Circuit, opts Options) *Simulator {
	s, err := New(ckt, opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Design implements sim.Engine.
func (s *Simulator) Design() *ast.Design { return s.d }

// CycleCount implements sim.Engine.
func (s *Simulator) CycleCount() uint64 { return s.cycle }

// Reg implements sim.Engine.
func (s *Simulator) Reg(name string) bits.Bits {
	i := s.d.RegIndex(name)
	return bits.Bits{Width: s.d.Registers[i].Type.BitWidth(), Val: s.state[i]}
}

// SetReg implements sim.Engine.
func (s *Simulator) SetReg(name string, v bits.Bits) {
	i := s.d.RegIndex(name)
	if v.Width != s.d.Registers[i].Type.BitWidth() {
		panic(fmt.Sprintf("rtlsim: SetReg %s width %d != %d", name, v.Width, s.d.Registers[i].Type.BitWidth()))
	}
	s.state[i] = v.Val
}

// RuleFired implements sim.Engine.
func (s *Simulator) RuleFired(rule string) bool { return s.fired[s.d.RuleIndex(rule)] }

// Cycle implements sim.Engine: refresh register outputs, evaluate the whole
// netlist, then clock the registers.
func (s *Simulator) Cycle() {
	nets := s.ckt.Nets
	for _, i := range s.regs {
		s.vals[i] = s.state[nets[i].Reg]
	}
	switch {
	case s.opts.Backend == Closure:
		for _, f := range s.fns {
			f()
		}
	case s.opts.Backend == Fused:
		for _, f := range s.blocks {
			f()
		}
	default:
		for _, ni := range s.plan {
			s.evalNet(ni)
		}
	}
	for si, ri := range s.sched {
		s.fired[ri] = s.vals[s.ckt.WillFire[si]] != 0
	}
	for reg, ni := range s.ckt.Next {
		s.state[reg] = s.vals[ni]
	}
	s.cycle++
}

// Snapshot implements sim.Snapshotter.
func (s *Simulator) Snapshot() sim.Snapshot {
	regs := make([]bits.Bits, len(s.state))
	for i, r := range s.d.Registers {
		regs[i] = bits.Bits{Width: r.Type.BitWidth(), Val: s.state[i]}
	}
	return sim.Snapshot{Cycle: s.cycle, Regs: regs}
}

// Restore implements sim.Snapshotter.
func (s *Simulator) Restore(snap sim.Snapshot) {
	for i := range snap.Regs {
		s.state[i] = snap.Regs[i].Val
	}
	s.cycle = snap.Cycle
	for i := range s.fired {
		s.fired[i] = false
	}
}

// evalNet evaluates one net in the switch backend.
func (s *Simulator) evalNet(i int) {
	n := &s.ckt.Nets[i]
	switch n.Kind {
	case circuit.NUnop:
		a := s.vals[n.Args[0]]
		aw := s.ckt.Nets[n.Args[0]].W
		switch n.Op {
		case ast.OpNot:
			s.vals[i] = ^a & bits.Mask(n.W)
		case ast.OpSignExtend:
			if aw == 0 {
				s.vals[i] = 0
			} else {
				sh := uint(64 - aw)
				s.vals[i] = uint64(int64(a<<sh)>>sh) & bits.Mask(n.W)
			}
		case ast.OpZeroExtend:
			s.vals[i] = a
		case ast.OpSlice:
			s.vals[i] = (a >> uint(n.Lo)) & bits.Mask(n.Wid)
		}
	case circuit.NBinop:
		a := s.vals[n.Args[0]]
		c := s.vals[n.Args[1]]
		aw := s.ckt.Nets[n.Args[0]].W
		bw := s.ckt.Nets[n.Args[1]].W
		s.vals[i] = evalBin(n.Op, a, c, aw, bw, n.W)
	case circuit.NMux:
		if s.vals[n.Args[0]] != 0 {
			s.vals[i] = s.vals[n.Args[1]]
		} else {
			s.vals[i] = s.vals[n.Args[2]]
		}
	case circuit.NExt:
		buf := s.extBufs[i]
		for j, a := range n.Args {
			buf[j] = bits.Bits{Width: s.ckt.Nets[a].W, Val: s.vals[a]}
		}
		s.vals[i] = s.d.ExtFuns[n.Ext].Fn(buf).Val
	}
}

// compileNet builds the closure-backend evaluator for one net.
func (s *Simulator) compileNet(i int) func() {
	n := &s.ckt.Nets[i]
	vals := s.vals
	switch n.Kind {
	case circuit.NUnop:
		a := n.Args[0]
		aw := s.ckt.Nets[a].W
		switch n.Op {
		case ast.OpNot:
			m := bits.Mask(n.W)
			return func() { vals[i] = ^vals[a] & m }
		case ast.OpSignExtend:
			m := bits.Mask(n.W)
			if aw == 0 {
				return func() { vals[i] = 0 }
			}
			sh := uint(64 - aw)
			return func() { vals[i] = uint64(int64(vals[a]<<sh)>>sh) & m }
		case ast.OpZeroExtend:
			return func() { vals[i] = vals[a] }
		case ast.OpSlice:
			lo := uint(n.Lo)
			m := bits.Mask(n.Wid)
			return func() { vals[i] = (vals[a] >> lo) & m }
		}
	case circuit.NBinop:
		a, b := n.Args[0], n.Args[1]
		aw := s.ckt.Nets[a].W
		bw := s.ckt.Nets[b].W
		op, w := n.Op, n.W
		return func() { vals[i] = evalBin(op, vals[a], vals[b], aw, bw, w) }
	case circuit.NMux:
		sel, a, b := n.Args[0], n.Args[1], n.Args[2]
		return func() {
			if vals[sel] != 0 {
				vals[i] = vals[a]
			} else {
				vals[i] = vals[b]
			}
		}
	case circuit.NExt:
		buf := s.extBufs[i]
		args := n.Args
		widths := make([]int, len(args))
		for j, a := range args {
			widths[j] = s.ckt.Nets[a].W
		}
		fn := s.d.ExtFuns[n.Ext].Fn
		return func() {
			for j, a := range args {
				buf[j] = bits.Bits{Width: widths[j], Val: vals[a]}
			}
			vals[i] = fn(buf).Val
		}
	}
	panic("rtlsim: unplannable net")
}

// evalBin evaluates a binary operator over raw payloads.
func evalBin(op ast.Op, a, b uint64, aw, bw, w int) uint64 {
	mask := bits.Mask(w)
	signed := func(v uint64, vw int) int64 {
		if vw == 0 {
			return 0
		}
		sh := uint(64 - vw)
		return int64(v<<sh) >> sh
	}
	b2u := func(c bool) uint64 {
		if c {
			return 1
		}
		return 0
	}
	switch op {
	case ast.OpAdd:
		return (a + b) & mask
	case ast.OpSub:
		return (a - b) & mask
	case ast.OpMul:
		return (a * b) & mask
	case ast.OpAnd:
		return a & b
	case ast.OpOr:
		return a | b
	case ast.OpXor:
		return a ^ b
	case ast.OpEq:
		return b2u(a == b)
	case ast.OpNeq:
		return b2u(a != b)
	case ast.OpLtu:
		return b2u(a < b)
	case ast.OpGeu:
		return b2u(a >= b)
	case ast.OpLts:
		return b2u(signed(a, aw) < signed(b, bw))
	case ast.OpGes:
		return b2u(signed(a, aw) >= signed(b, bw))
	case ast.OpSll:
		if b >= uint64(aw) {
			return 0
		}
		return a << b & mask
	case ast.OpSrl:
		if b >= uint64(aw) {
			return 0
		}
		return a >> b
	case ast.OpSra:
		sh := b
		if sh >= uint64(aw) {
			if aw == 0 {
				return 0
			}
			sh = uint64(aw)
		}
		return uint64(signed(a, aw)>>sh) & mask
	case ast.OpConcat:
		return (a<<uint(bw) | b) & mask
	}
	panic(fmt.Sprintf("rtlsim: unknown binop %v", op))
}

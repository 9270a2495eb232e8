package gomodel

import (
	"fmt"

	"cuttlego/internal/ast"
	"cuttlego/internal/diag"
)

// EncodeCondition compiles a checked, effect-free condition over d's
// registers (see debug.CompileExpr, which checks it) into a verified
// program for the condition VM (condvm.go): the one compiled form of a
// breakpoint or query condition, evaluated in-process by Condition.Eval and
// in the simulator subprocess by servo programs. Register reads become row
// indices in declaration order; let-bound names get the local slot of their
// nesting depth.
func EncodeCondition(d *ast.Design, expr *ast.Node) (_ *Condition, err error) {
	defer diag.Guard("gomodel: encode condition", &err)
	e := &condEncoder{d: d}
	e.node(expr)
	c, err := NewCondition(e.prog, len(d.Registers))
	if err != nil {
		return nil, fmt.Errorf("gomodel: condition encoded to a program the VM rejects")
	}
	return c, nil
}

type condEncoder struct {
	d     *ast.Design
	prog  []uint64
	scope []string
}

// emit appends an instruction word with operands x and y (widths and bit
// offsets, at most 64) and returns its pc.
func (e *condEncoder) emit(op, sub byte, x, y int) int {
	e.prog = append(e.prog, uint64(op)|uint64(sub)<<8|uint64(x)<<16|uint64(y)<<32)
	return len(e.prog) - 1
}

// emitArg appends an instruction word with a register, local or jump
// operand and returns its pc.
func (e *condEncoder) emitArg(op byte, arg uint64) int {
	e.prog = append(e.prog, uint64(op)|arg<<32)
	return len(e.prog) - 1
}

// patch points the jump at pc to the next instruction.
func (e *condEncoder) patch(pc int) {
	e.prog[pc] = e.prog[pc]&0xffffffff | uint64(len(e.prog))<<32
}

func (e *condEncoder) slot(name string) uint64 {
	for i := len(e.scope) - 1; i >= 0; i-- {
		if e.scope[i] == name {
			return uint64(i)
		}
	}
	diag.Invariantf("gomodel: encode condition", "unbound variable %q passed the checker", name)
	return 0
}

var vmBinopOf = map[ast.Op]byte{
	ast.OpAdd: vmAdd, ast.OpSub: vmSub, ast.OpMul: vmMul, ast.OpAnd: vmAnd, ast.OpOr: vmOr,
	ast.OpXor: vmXor, ast.OpEq: vmEq, ast.OpNeq: vmNeq, ast.OpLtu: vmLtu, ast.OpLts: vmLts,
	ast.OpGeu: vmGeu, ast.OpGes: vmGes, ast.OpSll: vmSll, ast.OpSrl: vmSrl, ast.OpSra: vmSra,
	ast.OpConcat: vmConcat,
}

// node emits code leaving n's payload on the stack (0 for unit values).
func (e *condEncoder) node(n *ast.Node) {
	switch n.Kind {
	case ast.KConst:
		e.emit(vmConst, 0, 0, 0)
		e.prog = append(e.prog, n.Val.Val)

	case ast.KVar:
		e.emitArg(vmLoad, e.slot(n.Name))

	case ast.KLet:
		e.node(n.A)
		s := len(e.scope)
		e.scope = append(e.scope, n.Name)
		e.emitArg(vmStore, uint64(s))
		e.node(n.B)
		e.scope = e.scope[:s]

	case ast.KAssign:
		e.node(n.A)
		e.emitArg(vmStore, e.slot(n.Name))
		e.emit(vmUnit, 0, 0, 0)

	case ast.KSeq:
		if len(n.Items) == 0 {
			e.emit(vmUnit, 0, 0, 0)
		}
		for i, it := range n.Items {
			e.node(it)
			if i < len(n.Items)-1 {
				e.emit(vmPop, 0, 0, 0)
			}
		}

	case ast.KIf:
		e.node(n.A)
		jz := e.emit(vmJz, 0, 0, 0)
		e.node(n.B)
		if n.C == nil {
			e.emit(vmPop, 0, 0, 0)
			e.patch(jz)
			e.emit(vmUnit, 0, 0, 0)
			return
		}
		jmp := e.emit(vmJmp, 0, 0, 0)
		e.patch(jz)
		e.node(n.C)
		e.patch(jmp)

	case ast.KRead:
		e.emitArg(vmRead, uint64(e.d.RegIndex(n.Name)))

	case ast.KUnop:
		e.node(n.A)
		switch n.Op {
		case ast.OpNot:
			e.emit(vmNot, 0, n.A.W, 0)
		case ast.OpSignExtend:
			e.emit(vmSext, 0, n.A.W, n.Wid)
		case ast.OpZeroExtend:
		case ast.OpSlice:
			e.emit(vmSlice, 0, n.Lo, n.Wid)
		default:
			diag.Invariantf("gomodel: encode condition", "unary operator %v passed the checker", n.Op)
		}

	case ast.KBinop:
		op, ok := vmBinopOf[n.Op]
		if !ok {
			diag.Invariantf("gomodel: encode condition", "binary operator %v passed the checker", n.Op)
		}
		e.node(n.A)
		e.node(n.B)
		e.emit(vmBinop, op, n.A.W, n.B.W)

	case ast.KField:
		e.node(n.A)
		e.emit(vmSlice, 0, n.Lo, n.Wid)

	case ast.KSetField:
		e.node(n.A)
		e.node(n.B)
		e.emit(vmSetSlice, 0, n.Lo, n.B.W)

	case ast.KPack:
		st := n.Ty.(*ast.StructType)
		e.emit(vmConst, 0, 0, 0)
		e.prog = append(e.prog, 0)
		for i, it := range n.Items {
			e.node(it)
			e.emit(vmSetSlice, 0, st.Offset(st.Fields[i].Name), it.W)
		}

	case ast.KSwitch:
		e.node(n.A)
		var ends []int
		for i := 0; i+1 < len(n.Items); i += 2 {
			c := e.emit(vmCase, 0, 0, 0)
			e.prog = append(e.prog, n.Items[i].Val.Val)
			e.node(n.Items[i+1])
			ends = append(ends, e.emit(vmJmp, 0, 0, 0))
			e.patch(c)
		}
		e.emit(vmPop, 0, 0, 0)
		e.node(n.C)
		for _, pc := range ends {
			e.patch(pc)
		}

	default:
		diag.Invariantf("gomodel: encode condition", "%v node passed the effect-free check", n.Kind)
	}
}

// Condition is a VM program checked and ready to evaluate in-process, the
// host-side twin of what a servo program runs.
type Condition struct {
	prog, stk, loc []uint64
	reads          []int
}

// NewCondition verifies prog against rows of nregs registers.
func NewCondition(prog []uint64, nregs int) (*Condition, error) {
	stack, locals, ok := vmCheck(prog, nregs)
	if !ok {
		return nil, fmt.Errorf("gomodel: malformed condition program")
	}
	c := &Condition{prog: prog, stk: make([]uint64, stack), loc: make([]uint64, locals)}
	read := make([]bool, nregs)
	for pc := 0; pc < len(prog); pc++ {
		switch byte(prog[pc]) {
		case vmRead:
			read[prog[pc]>>32] = true
		case vmConst, vmCase:
			pc++ // skip the constant word
		}
	}
	for i, r := range read {
		if r {
			c.reads = append(c.reads, i)
		}
	}
	return c, nil
}

// Code returns the program, the form in which the condition travels to a
// servo program.
func (c *Condition) Code() []uint64 { return c.prog }

// Reads returns the sorted set of register indices the program reads; Eval
// looks at no other slot of its row.
func (c *Condition) Reads() []int { return c.reads }

// Eval runs the program over row (register payloads in declaration order).
// It allocates nothing and is not safe for concurrent use, since the
// stack and locals live in the Condition.
func (c *Condition) Eval(row []uint64) bool { return vmEval(c.prog, row, c.stk, c.loc) != 0 }

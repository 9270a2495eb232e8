package debug

import (
	"fmt"

	"cuttlego/internal/ast"
	"cuttlego/internal/bits"
	"cuttlego/internal/diag"
	"cuttlego/internal/gomodel"
	"cuttlego/internal/interp"
	"cuttlego/internal/lang"
	"cuttlego/internal/sim"
)

// BreakWhenSource installs a conditional breakpoint written in the textual
// dialect, e.g.
//
//	dbg.BreakWhenSource("p_state.rd0() == pstate::ConfirmDowngrades")
//
// The expression must be 1-bit and effect-free (reads only). It is
// compiled once (see Compile); checking it after a cycle costs one row read
// of the engine's registers plus a walk of the condition's closure tree.
func (d *Debugger) BreakWhenSource(src string) error {
	cond, err := CompileCondition(d.d, src)
	if err != nil {
		return err
	}
	d.BreakWhen(src, cond)
	return nil
}

// CompileCondition turns a textual predicate over a design's registers into
// a reusable evaluator for any engine of that design that implements
// sim.RowReader (every engine in this module does). The simulation daemon
// uses Compile directly; this adapter serves callers holding an engine.
// The evaluator reuses one row and is not safe for concurrent use.
func CompileCondition(design *ast.Design, src string) (func(sim.Engine) bool, error) {
	p, err := Compile(design, src)
	if err != nil {
		return nil, err
	}
	row := make([]uint64, len(design.Registers))
	return func(e sim.Engine) bool {
		e.(sim.RowReader).ReadRow(row)
		return p.Eval(row)
	}, nil
}

// Predicate is a breakpoint or trace-query condition compiled once into a
// tree of closures over register payloads, plus the same condition as a
// condition-VM program for servo programs (Code). Conditions are
// effect-free, so evaluation needs no rule log: reads at either port
// observe the row. A Predicate is a sim.Cond.
type Predicate struct {
	// Expr is the parsed, type-checked condition.
	Expr *ast.Node
	// Reads is the sorted set of register indices the condition reads; Eval
	// looks at no other slot of its row.
	Reads []int

	fn   pfn
	loc  []uint64 // let-bound locals, reused by every Eval
	code []uint64
}

// Code returns the condition as a program for the condition VM
// (gomodel.EncodeCondition), which native-tier engines evaluate in the
// simulator subprocess.
func (p *Predicate) Code() []uint64 { return p.code }

// Eval evaluates the condition over row, where row[i] is the payload of
// register i in declaration order. Only the slots in Reads need be filled.
// Eval allocates nothing; it is not safe for concurrent use, since the
// condition's let-bound locals live in the Predicate.
func (p *Predicate) Eval(row []uint64) bool { return p.fn(row, p.loc) != 0 }

// Compile parses src as a condition over design's registers and compiles
// it. The condition must be 1-bit and effect-free: no writes, aborts or
// external calls.
func Compile(design *ast.Design, src string) (*Predicate, error) {
	expr, err := lang.ParseExpr(design, src)
	if err != nil {
		return nil, err
	}
	p, err := CompileExpr(design, expr)
	if err != nil {
		return nil, fmt.Errorf("condition %q: %w", src, err)
	}
	return p, nil
}

// CompileExpr checks and compiles a condition given as an unchecked
// expression tree, such as one built with the ast package. It annotates
// expr in place (widths, field offsets), as Design.Check does for rule
// bodies, so a tree is compiled at most once.
func CompileExpr(design *ast.Design, expr *ast.Node) (_ *Predicate, err error) {
	defer diag.Guard("debug: compile condition", &err)
	if err := checkEffectFree(expr); err != nil {
		return nil, err
	}
	w, err := design.CheckExpr(expr)
	if err != nil {
		return nil, err
	}
	if w != 1 {
		return nil, fmt.Errorf("condition must be 1 bit, got %d", w)
	}
	code, err := gomodel.EncodeCondition(design, expr)
	if err != nil {
		return nil, err
	}
	c := &predCompiler{d: design, read: make([]bool, len(design.Registers))}
	p := &Predicate{Expr: expr, fn: c.compile(expr), code: code}
	p.loc = make([]uint64, c.nloc)
	for i, r := range c.read {
		if r {
			p.Reads = append(p.Reads, i)
		}
	}
	return p, nil
}

// pfn evaluates one checked node to its payload; row holds register
// payloads and loc the let-bound locals.
type pfn func(row, loc []uint64) uint64

// predCompiler turns a checked, effect-free expression into closures.
// Every let-bound name gets the slot of its nesting depth, so sibling lets
// share slots and loc stays as small as the deepest nesting.
type predCompiler struct {
	d     *ast.Design
	scope []string // let-bound names, innermost last; index = slot
	nloc  int
	read  []bool // registers read, by index
}

func (c *predCompiler) slot(name string) int {
	for i := len(c.scope) - 1; i >= 0; i-- {
		if c.scope[i] == name {
			return i
		}
	}
	diag.Invariantf("debug: compile condition", "unbound variable %q passed the checker", name)
	return 0
}

func (c *predCompiler) compile(n *ast.Node) pfn {
	switch n.Kind {
	case ast.KConst:
		v := n.Val.Val
		return func(_, _ []uint64) uint64 { return v }

	case ast.KVar:
		s := c.slot(n.Name)
		return func(_, loc []uint64) uint64 { return loc[s] }

	case ast.KLet:
		init := c.compile(n.A)
		s := len(c.scope)
		c.scope = append(c.scope, n.Name)
		c.nloc = max(c.nloc, len(c.scope))
		body := c.compile(n.B)
		c.scope = c.scope[:s]
		return func(row, loc []uint64) uint64 {
			loc[s] = init(row, loc)
			return body(row, loc)
		}

	case ast.KAssign:
		s, a := c.slot(n.Name), c.compile(n.A)
		return func(row, loc []uint64) uint64 {
			loc[s] = a(row, loc)
			return 0
		}

	case ast.KSeq:
		items := make([]pfn, len(n.Items))
		for i, it := range n.Items {
			items[i] = c.compile(it)
		}
		return func(row, loc []uint64) uint64 {
			var v uint64
			for _, f := range items {
				v = f(row, loc)
			}
			return v
		}

	case ast.KIf:
		cond, then := c.compile(n.A), c.compile(n.B)
		if n.C == nil {
			return func(row, loc []uint64) uint64 {
				if cond(row, loc) != 0 {
					then(row, loc)
				}
				return 0
			}
		}
		els := c.compile(n.C)
		return func(row, loc []uint64) uint64 {
			if cond(row, loc) != 0 {
				return then(row, loc)
			}
			return els(row, loc)
		}

	case ast.KRead:
		i := c.d.RegIndex(n.Name)
		c.read[i] = true
		return func(row, _ []uint64) uint64 { return row[i] }

	case ast.KUnop:
		a, aw, lo, wid := c.compile(n.A), n.A.W, n.Lo, n.Wid
		switch n.Op {
		case ast.OpNot:
			return func(row, loc []uint64) uint64 { return bits.Bits{Width: aw, Val: a(row, loc)}.Not().Val }
		case ast.OpSignExtend:
			return func(row, loc []uint64) uint64 {
				return bits.Bits{Width: aw, Val: a(row, loc)}.SignExtend(wid).Val
			}
		case ast.OpZeroExtend:
			return a
		case ast.OpSlice:
			return func(row, loc []uint64) uint64 { return bits.Bits{Width: aw, Val: a(row, loc)}.Slice(lo, wid).Val }
		}

	case ast.KBinop:
		a, b, aw, bw, op := c.compile(n.A), c.compile(n.B), n.A.W, n.B.W, n.Op
		return func(row, loc []uint64) uint64 {
			av := a(row, loc)
			bv := b(row, loc)
			return interp.EvalBinop(op, bits.Bits{Width: aw, Val: av}, bits.Bits{Width: bw, Val: bv}).Val
		}

	case ast.KField:
		a, aw, lo, wid := c.compile(n.A), n.A.W, n.Lo, n.Wid
		return func(row, loc []uint64) uint64 { return bits.Bits{Width: aw, Val: a(row, loc)}.Slice(lo, wid).Val }

	case ast.KSetField:
		a, b, aw, bw, lo := c.compile(n.A), c.compile(n.B), n.A.W, n.B.W, n.Lo
		return func(row, loc []uint64) uint64 {
			av := a(row, loc)
			bv := b(row, loc)
			return bits.Bits{Width: aw, Val: av}.SetSlice(lo, bits.Bits{Width: bw, Val: bv}).Val
		}

	case ast.KPack:
		st := n.Ty.(*ast.StructType)
		w := st.BitWidth()
		fields := make([]pfn, len(n.Items))
		offs, widths := make([]int, len(n.Items)), make([]int, len(n.Items))
		for i, it := range n.Items {
			fields[i], offs[i], widths[i] = c.compile(it), st.Offset(st.Fields[i].Name), it.W
		}
		return func(row, loc []uint64) uint64 {
			out := bits.Zero(w)
			for i, f := range fields {
				out = out.SetSlice(offs[i], bits.Bits{Width: widths[i], Val: f(row, loc)})
			}
			return out.Val
		}

	case ast.KSwitch:
		scrut, def := c.compile(n.A), c.compile(n.C)
		var keys []uint64
		var arms []pfn
		for i := 0; i+1 < len(n.Items); i += 2 {
			keys = append(keys, n.Items[i].Val.Val)
			arms = append(arms, c.compile(n.Items[i+1]))
		}
		return func(row, loc []uint64) uint64 {
			v := scrut(row, loc)
			for i, k := range keys {
				if v == k {
					return arms[i](row, loc)
				}
			}
			return def(row, loc)
		}
	}
	diag.Invariantf("debug: compile condition", "%v node passed the effect-free check", n.Kind)
	return nil
}

// checkEffectFree rejects writes and aborts inside a breakpoint condition.
func checkEffectFree(n *ast.Node) error {
	if n == nil {
		return nil
	}
	switch n.Kind {
	case ast.KWrite:
		return fmt.Errorf("breakpoint conditions must not write registers (%s)", n.Name)
	case ast.KFail:
		return fmt.Errorf("breakpoint conditions must not abort")
	case ast.KExtCall:
		return fmt.Errorf("breakpoint conditions must not call external functions")
	}
	for _, c := range []*ast.Node{n.A, n.B, n.C} {
		if err := checkEffectFree(c); err != nil {
			return err
		}
	}
	for _, it := range n.Items {
		if err := checkEffectFree(it); err != nil {
			return err
		}
	}
	return nil
}

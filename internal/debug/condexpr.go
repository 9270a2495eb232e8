package debug

import (
	"fmt"

	"cuttlego/internal/ast"
	"cuttlego/internal/diag"
	"cuttlego/internal/gomodel"
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
// of the engine's registers plus one run of the condition's VM program.
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
// condition-VM program (gomodel.EncodeCondition) over register payloads:
// the same program evaluates in process (Eval) and, on the native tier, in
// the simulator subprocess (Code). Conditions are effect-free, so
// evaluation needs no rule log: reads at either port observe the row. A
// Predicate is a sim.Cond.
type Predicate struct {
	// Expr is the parsed, type-checked condition.
	Expr *ast.Node
	// Reads is the sorted set of register indices the condition reads; Eval
	// looks at no other slot of its row.
	Reads []int

	cond *gomodel.Condition
}

// Code returns the condition's condition-VM program, which native-tier
// engines evaluate in the simulator subprocess.
func (p *Predicate) Code() []uint64 { return p.cond.Code() }

// Eval evaluates the condition over row, where row[i] is the payload of
// register i in declaration order. Only the slots in Reads need be filled.
// Eval allocates nothing; it is not safe for concurrent use, since the
// VM's stack and locals live in the Predicate.
func (p *Predicate) Eval(row []uint64) bool { return p.cond.Eval(row) }

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
	cond, err := gomodel.EncodeCondition(design, expr)
	if err != nil {
		return nil, err
	}
	return &Predicate{Expr: expr, Reads: cond.Reads(), cond: cond}, nil
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

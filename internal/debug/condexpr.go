package debug

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"cuttlego/internal/ast"
	"cuttlego/internal/bits"
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
// The expression must be 1-bit and effect-free (reads only); fired(rule)
// is set when the rule committed in the cycle just run. It is compiled
// once (see Compile); checking it after a cycle costs one row read of the
// engine's registers (and fired-rule words, when it reads fired(rule))
// plus one run of the condition's VM program.
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
	nregs := len(design.Registers)
	row := make([]uint64, nregs)
	if p.Fired {
		row = make([]uint64, sim.RowLen(design))
	}
	return func(e sim.Engine) bool {
		rr := e.(sim.RowReader)
		rr.ReadRow(row[:nregs])
		if p.Fired {
			rr.ReadFired(row[nregs:])
		}
		return p.Eval(row)
	}, nil
}

// Predicate is a breakpoint or trace-query condition compiled once into a
// condition-VM program (gomodel.EncodeCondition) over a watched row
// (sim.RowLen: register payloads, then fired-rule words): the same program
// evaluates in process (Eval) and, on the native tier, in the simulator
// subprocess (Code). Conditions are effect-free, so
// evaluation needs no rule log: reads at either port observe the row. A
// Predicate is a sim.Cond.
type Predicate struct {
	// Expr is the parsed, type-checked condition.
	Expr *ast.Node
	// Reads is the sorted set of row indices the condition reads; Eval
	// looks at no other slot of its row.
	Reads []int
	// Fired is set when the condition reads fired-rule words (fired(rule));
	// otherwise a row of the registers alone is enough.
	Fired bool

	cond *gomodel.Condition
}

// Code returns the condition's condition-VM program, which native-tier
// engines evaluate in the simulator subprocess.
func (p *Predicate) Code() []uint64 { return p.cond.Code() }

// Eval evaluates the condition over row, where row[i] is the payload of
// register i in declaration order, followed by the fired-rule words. Only
// the slots in Reads need be filled. Eval allocates nothing; it is not
// safe for concurrent use, since the VM's stack and locals live in the
// Predicate.
func (p *Predicate) Eval(row []uint64) bool { return p.cond.Eval(row) }

// Compile parses src as a condition over design's registers and compiles
// it. The condition must be 1-bit and effect-free: no writes, aborts or
// external calls other than fired(rule).
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
	fired, err := lowerFired(design, expr)
	if err != nil {
		return nil, err
	}
	if err := checkEffectFree(expr); err != nil {
		return nil, err
	}
	view := design
	if fired {
		if view, err = firedView(design); err != nil {
			return nil, err
		}
	}
	w, err := view.CheckExpr(expr)
	if err != nil {
		return nil, err
	}
	if w != 1 {
		return nil, fmt.Errorf("condition must be 1 bit, got %d", w)
	}
	cond, err := gomodel.EncodeCondition(view, expr)
	if err != nil {
		return nil, err
	}
	return &Predicate{Expr: expr, Reads: cond.Reads(), Fired: fired, cond: cond}, nil
}

// firedReg names the pseudo-register holding fired-rule word i of a
// condition's row. No source text can spell it, so a condition reaches it
// only through fired(rule).
func firedReg(i int) string { return "fired#" + strconv.Itoa(i) }

// FiredBit recognizes the lowered form of fired(rule) in a compiled
// condition and returns the rule's fired-rule word and bit.
func FiredBit(n *ast.Node) (word, bit int, ok bool) {
	if n.Kind != ast.KUnop || n.Op != ast.OpSlice || n.Wid != 1 || n.A.Kind != ast.KRead {
		return 0, 0, false
	}
	w, found := strings.CutPrefix(n.A.Name, "fired#")
	if !found {
		return 0, 0, false
	}
	word, err := strconv.Atoi(w)
	return word, n.Lo, err == nil
}

// lowerFired rewrites, in place, every fired(rule) call in expr into a
// 1-bit slice of the pseudo-register holding the rule's fired word, and
// reports whether it found one. Rule i of d.Rules is bit i%64 of word i/64.
func lowerFired(d *ast.Design, n *ast.Node) (bool, error) {
	if n == nil {
		return false, nil
	}
	if n.Kind == ast.KExtCall && n.Name == "fired" {
		if len(n.Items) != 1 || n.Items[0].Kind != ast.KVar {
			return false, fmt.Errorf("fired takes one rule name, as in fired(rule)")
		}
		rule := n.Items[0].Name
		i := slices.IndexFunc(d.Rules, func(r ast.Rule) bool { return r.Name == rule })
		if i < 0 {
			return false, fmt.Errorf("fired: design %q has no rule %q", d.Name, rule)
		}
		*n = *ast.Slice(ast.Rd0(firedReg(i/64)), i%64, 1)
		return true, nil
	}
	found := false
	for _, c := range append([]*ast.Node{n.A, n.B, n.C}, n.Items...) {
		f, err := lowerFired(d, c)
		if err != nil {
			return false, err
		}
		found = found || f
	}
	return found, nil
}

// firedView is the condition-only view of d that fired(rule) conditions
// check and compile against: d's registers followed by one 64-bit
// pseudo-register per fired-rule word, so its register indices are the
// watched row's (sim.RowLen). It has no rules.
func firedView(d *ast.Design) (*ast.Design, error) {
	v := &ast.Design{Name: d.Name, Registers: slices.Clip(d.Registers)}
	for i := range sim.FiredWords(len(d.Rules)) {
		v.RegB(firedReg(i), ast.Bits(64), bits.Zero(64))
	}
	return v, v.Check()
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

package difftest

import (
	"fmt"
	"math/rand"

	"cuttlego/internal/ast"
	"cuttlego/internal/bits"
)

// GenerateCondition builds a random 1-bit, effect-free expression over d's
// registers from a seed: the shape of a debugger breakpoint or a trace
// query predicate. Across seeds it reaches every node kind a condition may
// hold — let, assignment, sequence, if (with and without else), switch,
// reads at both ports, every unary and binary operator, struct field
// projection, update and packing — with operand widths from 0 to 64 bits,
// signed compares, and shift amounts at and beyond the operand width. d
// need not be checked; the returned tree is unchecked.
func GenerateCondition(d *ast.Design, seed int64) *ast.Node {
	g := &condGen{r: rand.New(rand.NewSource(seed)), d: d}
	for _, r := range d.Registers {
		g.collectStructs(r.Type)
	}
	return g.cond(4)
}

type condVar struct {
	name string
	w    int
}

type condGen struct {
	r       *rand.Rand
	d       *ast.Design
	structs []*ast.StructType
	vars    []condVar // let-bound names in scope, innermost last
	fresh   int
}

func (g *condGen) collectStructs(t ast.Type) {
	st, ok := t.(*ast.StructType)
	if !ok {
		return
	}
	for _, s := range g.structs {
		if s == st {
			return
		}
	}
	g.structs = append(g.structs, st)
	for _, f := range st.Fields {
		g.collectStructs(f.Type)
	}
}

func (g *condGen) name() string {
	g.fresh++
	return fmt.Sprintf("v%d", g.fresh)
}

// width picks an operand width: often a register's, often an edge.
func (g *condGen) width() int {
	switch p := g.r.Intn(20); {
	case p < 8 && len(g.d.Registers) > 0:
		return g.d.Registers[g.r.Intn(len(g.d.Registers))].Type.BitWidth()
	case p < 11:
		return 0
	case p < 14:
		return 64
	case p < 16:
		return 1
	default:
		return 1 + g.r.Intn(64)
	}
}

// cond builds a 1-bit expression.
func (g *condGen) cond(depth int) *ast.Node {
	if depth <= 0 {
		return g.compare(0)
	}
	switch g.r.Intn(10) {
	case 0, 1, 2:
		return g.compare(depth - 1)
	case 3:
		ops := []func(a, b *ast.Node) *ast.Node{ast.And, ast.Or, ast.Xor}
		return ops[g.r.Intn(len(ops))](g.cond(depth-1), g.cond(depth-1))
	case 4:
		return ast.Not(g.cond(depth - 1))
	case 5:
		return g.let(1, depth)
	case 6:
		return ast.If(g.cond(depth-1), g.cond(depth-1), g.cond(depth-1))
	case 7:
		return g.match(1, depth-1)
	default: // one bit of a wider value
		w := 1 + g.r.Intn(64)
		return ast.Slice(g.value(w, depth-1), g.r.Intn(w), 1)
	}
}

func (g *condGen) compare(depth int) *ast.Node {
	w := g.width()
	ops := []func(a, b *ast.Node) *ast.Node{ast.Eq, ast.Neq, ast.Ltu, ast.Lts, ast.Geu, ast.Ges}
	return ops[g.r.Intn(len(ops))](g.value(w, depth), g.value(w, depth))
}

// let binds a fresh variable around a bodyW-bit body, sometimes
// reassigning it (unconditionally or under an if without else) before the
// body reads it.
func (g *condGen) let(bodyW, depth int) *ast.Node {
	w := g.width()
	name, init := g.name(), g.value(w, depth-1)
	g.vars = append(g.vars, condVar{name, w})
	defer func() { g.vars = g.vars[:len(g.vars)-1] }()
	body := func() *ast.Node {
		if bodyW == 1 {
			return g.cond(depth - 1)
		}
		return g.value(bodyW, depth-1)
	}
	switch g.r.Intn(3) {
	case 0:
		return ast.Let(name, init, ast.Set(name, g.value(w, depth-1)), body())
	case 1:
		return ast.Let(name, init, ast.When(g.cond(depth-1), ast.Set(name, g.value(w, depth-1))), body())
	}
	return ast.Let(name, init, body())
}

// match builds a switch yielding w bits over a narrow scrutinee, so arms
// actually match.
func (g *condGen) match(w, depth int) *ast.Node {
	sw := 1 + g.r.Intn(4)
	arm := func() *ast.Node {
		if w == 1 {
			return g.cond(depth)
		}
		return g.value(w, depth)
	}
	var cases []ast.Case
	for i := g.r.Intn(4); i >= 0; i-- {
		cases = append(cases, ast.Case{Match: ast.C(sw, g.r.Uint64()), Body: arm()})
	}
	return ast.Switch(g.value(sw, depth), arm(), cases...)
}

// value builds a w-bit expression.
func (g *condGen) value(w, depth int) *ast.Node {
	if depth <= 0 {
		return g.leaf(w)
	}
	switch g.r.Intn(12) {
	case 0, 1:
		return g.leaf(w)
	case 2:
		ops := []func(a, b *ast.Node) *ast.Node{ast.Add, ast.Sub, ast.Mul, ast.And, ast.Or, ast.Xor}
		return ops[g.r.Intn(len(ops))](g.value(w, depth-1), g.value(w, depth-1))
	case 3: // shift amounts reach past the operand width
		ops := []func(a, b *ast.Node) *ast.Node{ast.Sll, ast.Srl, ast.Sra}
		sw := 1 + g.r.Intn(8)
		amt := ast.C(sw, uint64(w)+uint64(g.r.Intn(3))-1)
		if g.r.Intn(2) == 0 {
			amt = g.value(sw, depth-1)
		}
		return ops[g.r.Intn(len(ops))](g.value(w, depth-1), amt)
	case 4:
		return ast.Not(g.value(w, depth-1))
	case 5:
		from := g.r.Intn(w + 1)
		if g.r.Intn(2) == 0 {
			return ast.SignExtend(w, g.value(from, depth-1))
		}
		return ast.ZeroExtend(w, g.value(from, depth-1))
	case 6:
		sw := w + g.r.Intn(64-w+1)
		return ast.Slice(g.value(sw, depth-1), g.r.Intn(sw-w+1), w)
	case 7:
		hi := g.r.Intn(w + 1)
		return ast.Concat(g.value(hi, depth-1), g.value(w-hi, depth-1))
	case 8:
		if len(g.structs) > 0 {
			return g.field(w, depth)
		}
		return g.leaf(w)
	case 9:
		return ast.If(g.cond(depth-1), g.value(w, depth-1), g.value(w, depth-1))
	case 10:
		return g.match(w, depth-1)
	default:
		return g.let(w, depth)
	}
}

// field projects a random field out of a struct value, fitted to w bits.
func (g *condGen) field(w, depth int) *ast.Node {
	st := g.structs[g.r.Intn(len(g.structs))]
	f := st.Fields[g.r.Intn(len(st.Fields))]
	proj := ast.Field(g.structValue(st, depth-1), f.Name)
	switch fw := f.Type.BitWidth(); {
	case fw > w:
		return ast.Slice(proj, 0, w)
	case fw < w:
		return ast.ZeroExtend(w, proj)
	}
	return proj
}

// structValue builds a value of struct type st: a register read, a
// packed literal, or a field update.
func (g *condGen) structValue(st *ast.StructType, depth int) *ast.Node {
	var regs []string
	for _, r := range g.d.Registers {
		if r.Type == st {
			regs = append(regs, r.Name)
		}
	}
	p := g.r.Intn(3)
	if depth <= 0 {
		p = 0
	}
	switch {
	case p == 0 && len(regs) > 0:
		return g.read(regs[g.r.Intn(len(regs))])
	case p == 2:
		f := st.Fields[g.r.Intn(len(st.Fields))]
		return ast.SetField(g.structValue(st, depth-1), f.Name, g.fieldValue(f.Type, depth-1))
	}
	vals := make([]*ast.Node, len(st.Fields))
	for i, f := range st.Fields {
		vals[i] = g.fieldValue(f.Type, depth-1)
	}
	return ast.Pack(st, vals...)
}

func (g *condGen) fieldValue(t ast.Type, depth int) *ast.Node {
	if st, ok := t.(*ast.StructType); ok {
		return g.structValue(st, depth)
	}
	return g.value(t.BitWidth(), depth)
}

func (g *condGen) read(reg string) *ast.Node {
	if g.r.Intn(2) == 0 {
		return ast.Rd1(reg)
	}
	return ast.Rd0(reg)
}

// leaf is a w-bit variable, register read or constant.
func (g *condGen) leaf(w int) *ast.Node {
	var vars []string
	for _, v := range g.vars {
		if v.w == w {
			vars = append(vars, v.name)
		}
	}
	var regs []string
	for _, r := range g.d.Registers {
		if r.Type.BitWidth() == w {
			regs = append(regs, r.Name)
		}
	}
	switch p := g.r.Intn(4); {
	case p == 0 && len(vars) > 0:
		return ast.V(vars[g.r.Intn(len(vars))])
	case p <= 2 && len(regs) > 0:
		return g.read(regs[g.r.Intn(len(regs))])
	}
	// Constants favour the edges: zero, all ones, the sign bit alone.
	switch g.r.Intn(4) {
	case 0:
		return ast.C(w, 0)
	case 1:
		return ast.CB(bits.Ones(w))
	case 2:
		if w > 0 {
			return ast.C(w, 1<<uint(w-1))
		}
	}
	return ast.C(w, g.r.Uint64())
}

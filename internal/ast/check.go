package ast

import (
	"fmt"

	"cuttlego/internal/bits"
	"cuttlego/internal/diag"
)

// MaxCheckDepth bounds expression nesting during type checking. The textual
// frontend caps nesting far lower; this guard protects the checker's own
// recursion against pathological programmatically-built designs, for which
// Go offers no recoverable stack-overflow handling.
const MaxCheckDepth = 10000

// Check validates the design and annotates it for the downstream pipelines:
// names are resolved, every node receives a result width (Node.W) and a
// dense per-design ID (Node.ID, used by coverage counters and the
// debugger), and the schedule is checked against the rule set. Check is
// idempotent in effect but must only be called once per Design because node
// IDs are assigned in place.
//
// Check accumulates: a failure in one rule does not hide failures in later
// rules. The returned error is a *diag.List (or nil); each diagnostic
// carries the source position of its node when the design came from text.
func (d *Design) Check() (err error) {
	defer diag.Guard("ast: check design", &err)
	if d.checked {
		return nil
	}
	diags := diag.NewList(0)
	d.regIdx = make(map[string]int, len(d.Registers))
	for i, r := range d.Registers {
		if _, dup := d.regIdx[r.Name]; dup {
			diags.Errorf(diag.Pos{}, "duplicate register %q", r.Name)
			continue
		}
		if r.Init.Width != r.Type.BitWidth() {
			diags.Errorf(diag.Pos{}, "register %q: init width %d != type width %d", r.Name, r.Init.Width, r.Type.BitWidth())
		}
		d.regIdx[r.Name] = i
	}
	d.extIdx = make(map[string]int, len(d.ExtFuns))
	for i, f := range d.ExtFuns {
		if _, dup := d.extIdx[f.Name]; dup {
			diags.Errorf(diag.Pos{}, "duplicate extfun %q", f.Name)
			continue
		}
		if f.Fn == nil {
			diags.Errorf(diag.Pos{}, "extfun %q has no implementation", f.Name)
		}
		d.extIdx[f.Name] = i
	}
	d.ruleIdx = make(map[string]int, len(d.Rules))
	for i, r := range d.Rules {
		if _, dup := d.ruleIdx[r.Name]; dup {
			diags.Errorf(diag.Pos{}, "duplicate rule %q", r.Name)
			continue
		}
		d.ruleIdx[r.Name] = i
	}
	inSched := make(map[string]bool, len(d.Schedule))
	for _, name := range d.Schedule {
		if _, ok := d.ruleIdx[name]; !ok {
			diags.Errorf(diag.Pos{}, "schedule mentions unknown rule %q", name)
			continue
		}
		if inSched[name] {
			diags.Errorf(diag.Pos{}, "rule %q scheduled twice", name)
		}
		inSched[name] = true
	}
	ck := &checker{d: d, seen: make(map[*Node]bool)}
	for i := range d.Rules {
		r := &d.Rules[i]
		if r.Body == nil {
			diags.Errorf(diag.Pos{}, "rule %q has no body", r.Name)
			continue
		}
		if _, _, err := ck.check(r.Body, nil); err != nil {
			diags.AddError(inRule(r.Name, err))
			continue
		}
		if r.Body.W != 0 {
			diags.Errorf(r.Body.Pos, "rule %q: body yields %d-bit value; rules must be unit-valued", r.Name, r.Body.W)
		}
	}
	if err := diags.Err(); err != nil {
		return err
	}
	d.NodeCount = ck.nextID
	d.checked = true
	return nil
}

// CheckExpr type-checks a standalone expression — one that belongs to no
// rule, such as a debugger condition — against the registers and external
// functions of the checked design d, annotating its nodes as Check does,
// and returns its width. d itself is not modified.
func (d *Design) CheckExpr(n *Node) (w int, err error) {
	defer diag.Guard("ast: check expression", &err)
	if !d.checked {
		return 0, fmt.Errorf("design %q is not checked", d.Name)
	}
	ck := &checker{d: d, seen: make(map[*Node]bool)}
	w, _, err = ck.check(n, nil)
	return w, err
}

// inRule prefixes a checker error with its rule's name, preserving the
// position when the error is a diagnostic.
func inRule(rule string, err error) error {
	if dg, ok := err.(*diag.Diagnostic); ok {
		dg.Msg = fmt.Sprintf("rule %q: %s", rule, dg.Msg)
		return dg
	}
	return fmt.Errorf("rule %q: %w", rule, err)
}

type binding struct {
	name string
	w    int
	ty   Type
}

type checker struct {
	d      *Design
	nextID int
	depth  int
	seen   map[*Node]bool
}

func lookup(env []binding, name string) (binding, bool) {
	for i := len(env) - 1; i >= 0; i-- {
		if env[i].name == name {
			return env[i], true
		}
	}
	return binding{}, false
}

// check type-checks n in env, returning its width and (when known) a richer
// type. It assigns IDs in evaluation order so coverage listings read
// top-to-bottom.
func (c *checker) check(n *Node, env []binding) (int, Type, error) {
	if n == nil {
		return 0, nil, fmt.Errorf("nil node")
	}
	if c.depth >= MaxCheckDepth {
		return 0, nil, diag.Errorf(n.Pos, "expression nesting deeper than %d levels; simplify the design", MaxCheckDepth)
	}
	c.depth++
	defer func() { c.depth-- }()
	if c.seen[n] {
		return 0, nil, diag.Errorf(n.Pos, "node %v is used twice in the design; build a fresh node per use", n.Kind)
	}
	c.seen[n] = true
	n.ID = c.nextID
	c.nextID++

	fail := func(format string, args ...any) (int, Type, error) {
		return 0, nil, diag.Errorf(n.Pos, "%v: %s", n.Kind, fmt.Sprintf(format, args...))
	}
	setW := func(w int, ty Type) (int, Type, error) {
		n.W = w
		if ty != nil {
			n.Ty = ty
		}
		return w, ty, nil
	}

	switch n.Kind {
	case KConst:
		return setW(n.Val.Width, n.Ty)

	case KVar:
		b, ok := lookup(env, n.Name)
		if !ok {
			return fail("unbound variable %q", n.Name)
		}
		return setW(b.w, b.ty)

	case KLet:
		w, ty, err := c.check(n.A, env)
		if err != nil {
			return 0, nil, err
		}
		env = append(env, binding{name: n.Name, w: w, ty: ty})
		wb, tyb, err := c.check(n.B, env)
		if err != nil {
			return 0, nil, err
		}
		return setW(wb, tyb)

	case KAssign:
		b, ok := lookup(env, n.Name)
		if !ok {
			return fail("assignment to unbound variable %q", n.Name)
		}
		w, _, err := c.check(n.A, env)
		if err != nil {
			return 0, nil, err
		}
		if w != b.w {
			return fail("assigning %d bits to %d-bit variable %q", w, b.w, n.Name)
		}
		return setW(0, nil)

	case KSeq:
		var w int
		var ty Type
		for _, it := range n.Items {
			var err error
			w, ty, err = c.check(it, env)
			if err != nil {
				return 0, nil, err
			}
		}
		return setW(w, ty)

	case KIf:
		cw, _, err := c.check(n.A, env)
		if err != nil {
			return 0, nil, err
		}
		if cw != 1 {
			return fail("condition must be 1 bit, got %d", cw)
		}
		tw, tty, err := c.check(n.B, env)
		if err != nil {
			return 0, nil, err
		}
		if n.C == nil {
			if tw != 0 {
				return fail("if without else must be unit-valued, got %d bits", tw)
			}
			return setW(0, nil)
		}
		ew, _, err := c.check(n.C, env)
		if err != nil {
			return 0, nil, err
		}
		if tw != ew {
			return fail("branch widths differ: %d vs %d", tw, ew)
		}
		return setW(tw, tty)

	case KRead:
		i, ok := c.d.regIdx[n.Name]
		if !ok {
			return fail("unknown register %q", n.Name)
		}
		r := c.d.Registers[i]
		return setW(r.Type.BitWidth(), r.Type)

	case KWrite:
		i, ok := c.d.regIdx[n.Name]
		if !ok {
			return fail("unknown register %q", n.Name)
		}
		w, _, err := c.check(n.A, env)
		if err != nil {
			return 0, nil, err
		}
		if rw := c.d.Registers[i].Type.BitWidth(); w != rw {
			return fail("writing %d bits to %d-bit register %q", w, rw, n.Name)
		}
		return setW(0, nil)

	case KFail:
		return setW(n.Wid, nil)

	case KUnop:
		aw, aty, err := c.check(n.A, env)
		if err != nil {
			return 0, nil, err
		}
		switch n.Op {
		case OpNot:
			return setW(aw, nil)
		case OpSignExtend, OpZeroExtend:
			if n.Wid < aw {
				return fail("extend %d-bit value to narrower %d bits", aw, n.Wid)
			}
			if n.Wid > bits.MaxWidth {
				return fail("extend beyond %d bits", bits.MaxWidth)
			}
			return setW(n.Wid, nil)
		case OpSlice:
			if n.Lo < 0 || n.Wid < 0 || n.Lo+n.Wid > aw {
				return fail("slice [%d +%d) out of %d-bit value", n.Lo, n.Wid, aw)
			}
			_ = aty
			return setW(n.Wid, nil)
		}
		return fail("bad unary op %v", n.Op)

	case KBinop:
		aw, _, err := c.check(n.A, env)
		if err != nil {
			return 0, nil, err
		}
		bw, _, err := c.check(n.B, env)
		if err != nil {
			return 0, nil, err
		}
		switch n.Op {
		case OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor:
			if aw != bw {
				return fail("%v operand widths differ: %d vs %d", n.Op, aw, bw)
			}
			return setW(aw, nil)
		case OpEq, OpNeq, OpLtu, OpLts, OpGeu, OpGes:
			if aw != bw {
				return fail("%v operand widths differ: %d vs %d", n.Op, aw, bw)
			}
			return setW(1, nil)
		case OpSll, OpSrl, OpSra:
			return setW(aw, nil)
		case OpConcat:
			if aw+bw > bits.MaxWidth {
				return fail("concat result %d exceeds %d bits", aw+bw, bits.MaxWidth)
			}
			return setW(aw+bw, nil)
		}
		return fail("bad binary op %v", n.Op)

	case KExtCall:
		i, ok := c.d.extIdx[n.Name]
		if !ok {
			return fail("unknown extfun %q", n.Name)
		}
		f := c.d.ExtFuns[i]
		if len(n.Items) != len(f.ArgWidths) {
			return fail("extfun %q takes %d args, got %d", n.Name, len(f.ArgWidths), len(n.Items))
		}
		for j, a := range n.Items {
			w, _, err := c.check(a, env)
			if err != nil {
				return 0, nil, err
			}
			if w != f.ArgWidths[j] {
				return fail("extfun %q arg %d: want %d bits, got %d", n.Name, j, f.ArgWidths[j], w)
			}
		}
		return setW(f.Ret.BitWidth(), f.Ret)

	case KField:
		_, aty, err := c.check(n.A, env)
		if err != nil {
			return 0, nil, err
		}
		st, ok := aty.(*StructType)
		if !ok {
			return fail("field access %q on non-struct value", n.Name)
		}
		f, ok := st.FieldByName(n.Name)
		if !ok {
			return fail("struct %s has no field %q", st.Name, n.Name)
		}
		n.Ty = f.Type
		n.Lo = st.Offset(n.Name)
		n.Wid = f.Type.BitWidth()
		n.W = n.Wid
		return n.W, f.Type, nil

	case KSetField:
		aw, aty, err := c.check(n.A, env)
		if err != nil {
			return 0, nil, err
		}
		st, ok := aty.(*StructType)
		if !ok {
			return fail("field update %q on non-struct value", n.Name)
		}
		f, ok := st.FieldByName(n.Name)
		if !ok {
			return fail("struct %s has no field %q", st.Name, n.Name)
		}
		vw, _, err := c.check(n.B, env)
		if err != nil {
			return 0, nil, err
		}
		if vw != f.Type.BitWidth() {
			return fail("field %s.%s wants %d bits, got %d", st.Name, n.Name, f.Type.BitWidth(), vw)
		}
		n.Lo = st.Offset(n.Name)
		n.Wid = f.Type.BitWidth()
		return setW(aw, st)

	case KPack:
		st, ok := n.Ty.(*StructType)
		if !ok {
			return fail("pack requires a struct type")
		}
		if len(n.Items) != len(st.Fields) {
			return fail("struct %s has %d fields, got %d values", st.Name, len(st.Fields), len(n.Items))
		}
		for j, it := range n.Items {
			w, _, err := c.check(it, env)
			if err != nil {
				return 0, nil, err
			}
			if fw := st.Fields[j].Type.BitWidth(); w != fw {
				return fail("field %s.%s wants %d bits, got %d", st.Name, st.Fields[j].Name, fw, w)
			}
		}
		return setW(st.BitWidth(), st)

	case KSwitch:
		sw, _, err := c.check(n.A, env)
		if err != nil {
			return 0, nil, err
		}
		if len(n.Items)%2 != 0 {
			return fail("malformed switch")
		}
		if n.C == nil {
			return fail("switch requires a default arm")
		}
		dw, dty, err := c.check(n.C, env)
		if err != nil {
			return 0, nil, err
		}
		for j := 0; j < len(n.Items); j += 2 {
			m, body := n.Items[j], n.Items[j+1]
			mw, _, err := c.check(m, env)
			if err != nil {
				return 0, nil, err
			}
			if m.Kind != KConst {
				return fail("switch arm %d: match must be a constant", j/2)
			}
			if mw != sw {
				return fail("switch arm %d: match width %d != scrutinee width %d", j/2, mw, sw)
			}
			bw, _, err := c.check(body, env)
			if err != nil {
				return 0, nil, err
			}
			if bw != dw {
				return fail("switch arm %d: body width %d != default width %d", j/2, bw, dw)
			}
		}
		return setW(dw, dty)
	}
	return fail("unknown node kind")
}

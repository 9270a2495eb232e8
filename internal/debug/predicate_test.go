package debug

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cuttlego/internal/ast"
	"cuttlego/internal/bench"
	"cuttlego/internal/cuttlesim"
	"cuttlego/internal/difftest"
	"cuttlego/internal/interp"
	"cuttlego/internal/lang"
	"cuttlego/internal/sim"
)

// probe is the reference evaluator compiled predicates are checked
// against: the condition becomes the sole rule of a probe design that
// declares the debugged design's registers, and evaluating it copies the
// live state in by name and runs the reference interpreter for one cycle.
func probe(t testing.TB, d *ast.Design, expr *ast.Node) func(sim.Engine) bool {
	t.Helper()
	tmp := ast.NewDesign("$probe")
	for _, r := range d.Registers {
		tmp.RegB(r.Name, r.Type, r.Init)
	}
	tmp.Reg("$cond", ast.Bits(1), 0)
	tmp.Rule("$probe", ast.Wr0("$cond", expr.Clone()))
	if err := tmp.Check(); err != nil {
		t.Fatalf("probe design: %v", err)
	}
	eval, err := interp.New(tmp)
	if err != nil {
		t.Fatalf("probe interpreter: %v", err)
	}
	return func(e sim.Engine) bool {
		for _, r := range d.Registers {
			eval.SetReg(r.Name, e.Reg(r.Name))
		}
		eval.Cycle()
		return eval.Reg("$cond").Bool()
	}
}

// checkPredicate runs inst for cycles cycles and checks, before the first
// and after every cycle, that the compiled predicate (a condition-VM
// program, the form servo programs also run) agrees with the probe — once
// over the full row, and once over a row holding only the read set (every
// other slot poisoned), which checks that Reads is complete.
func checkPredicate(t testing.TB, inst bench.Instance, expr *ast.Node, cycles int) (hits int) {
	t.Helper()
	d := inst.Design
	want := probe(t, d, expr)
	p, err := CompileExpr(d, expr.Clone())
	if err != nil {
		t.Fatalf("CompileExpr: %v", err)
	}
	e, err := cuttlesim.New(d, cuttlesim.Options{Level: cuttlesim.LStatic, Backend: cuttlesim.Closure})
	if err != nil {
		t.Fatalf("cuttlesim.New: %v", err)
	}
	tb := inst.Bench
	if tb == nil {
		tb = sim.NopBench{}
	}
	row := make([]uint64, len(d.Registers))
	sparse := make([]uint64, len(d.Registers))
	for c := 0; ; c++ {
		e.ReadRow(row)
		for i := range sparse {
			sparse[i] = 0xdeadbeefdeadbeef
		}
		for _, i := range p.Reads {
			sparse[i] = row[i]
		}
		ref := want(e)
		if got := p.Eval(row); got != ref {
			t.Fatalf("%s cycle %d: compiled %v, interp probe %v\ncondition: %s", d.Name, c, got, ref, show(expr))
		}
		if got := p.Eval(sparse); got != ref {
			t.Fatalf("%s cycle %d: compiled %v over the read set %v only, interp probe %v\ncondition: %s",
				d.Name, c, got, p.Reads, ref, show(expr))
		}
		if ref {
			hits++
		}
		if c == cycles {
			return hits
		}
		tb.BeforeCycle(e)
		e.Cycle()
		tb.AfterCycle(e)
	}
}

// show renders a condition for a failure message.
func show(n *ast.Node) string {
	d := ast.NewDesign("cond")
	d.Rule("r", ast.Let("cond", n.Clone(), ast.Skip()))
	return d.Print().Text()
}

// generated returns difftest design seed, checked.
func generated(t testing.TB, seed int64) bench.Instance {
	t.Helper()
	d := difftest.Generate(seed)
	if err := d.Check(); err != nil {
		t.Fatalf("difftest.Generate(%d): %v", seed, err)
	}
	return bench.Instance{Design: d}
}

// TestPredicateMatchesProbe is the compiler's oracle: seeded random
// effect-free conditions over generated and catalogue designs must agree
// with the interpreter probe on every cycle of a run.
func TestPredicateMatchesProbe(t *testing.T) {
	var insts []bench.Instance
	for seed := int64(1); seed <= 40; seed++ {
		insts = append(insts, generated(t, seed))
	}
	for _, name := range bench.Names() {
		bm, _ := bench.Lookup(name)
		insts = append(insts, bm.New())
	}
	kinds := map[string]bool{}
	var hits, checks int
	for i, inst := range insts {
		for k := int64(0); k < 6; k++ {
			expr := difftest.GenerateCondition(inst.Design, int64(i)*101+k)
			checked := expr.Clone()
			if _, err := inst.Design.CheckExpr(checked); err != nil {
				t.Fatalf("%s: generated condition does not check: %v", inst.Design.Name, err)
			}
			tally(checked, kinds)
			hits += checkPredicate(t, inst, expr, 60)
			checks += 61
		}
	}
	// The generator must have reached every node kind a condition admits,
	// and the conditions must not be trivially constant.
	for _, k := range []string{
		"const", "var", "let", "assign", "seq", "if", "when", "read0", "read1",
		"not", "sext", "zext", "slice", "field", "setfield", "pack", "switch",
		"+", "-", "*", "&", "|", "^", "==", "!=", "<u", "<s", ">=u", ">=s",
		"<<", ">>", ">>>", "++", "shift>=width", "width0", "width64",
	} {
		if !kinds[k] {
			t.Errorf("no generated condition holds %q", k)
		}
	}
	if hits == 0 || hits == checks {
		t.Errorf("conditions held on %d of %d checks; want a mix", hits, checks)
	}
}

// tally records which node kinds, operators and edge widths the checked
// condition expr holds.
func tally(expr *ast.Node, kinds map[string]bool) {
	var walk func(n *ast.Node)
	walk = func(n *ast.Node) {
		if n == nil {
			return
		}
		switch n.Kind {
		case ast.KRead:
			kinds["read"+n.Port.String()] = true
		case ast.KIf:
			if n.C == nil {
				kinds["when"] = true
			} else {
				kinds["if"] = true
			}
		case ast.KUnop, ast.KBinop:
			kinds[n.Op.String()] = true
			if n.Op == ast.OpSll || n.Op == ast.OpSrl || n.Op == ast.OpSra {
				if n.B.Kind == ast.KConst && n.B.Val.Val >= uint64(n.A.W) {
					kinds["shift>=width"] = true
				}
			}
		default:
			kinds[n.Kind.String()] = true
		}
		switch n.W {
		case 0:
			if n.Kind != ast.KAssign && !(n.Kind == ast.KIf && n.C == nil) {
				kinds["width0"] = true
			}
		case 64:
			kinds["width64"] = true
		}
		walk(n.A)
		walk(n.B)
		walk(n.C)
		for _, it := range n.Items {
			walk(it)
		}
	}
	walk(expr)
}

// TestPredicateTextMatchesProbe runs conditions written in the textual
// dialect — the path breakpoints and queries take — against the probe.
func TestPredicateTextMatchesProbe(t *testing.T) {
	cases := map[string][]string{
		"collatz": {
			"x.rd0() <u 32'd5",
			"(x.rd0() >> 32'd40) == 32'd0 & x.rd1()[0 +: 1] == 1'd1",
			"sext<64>(x.rd0()) <s 64'd0 | !(x.rd0() == 32'd1)",
			"mux(x.rd0()[0 +: 1] == 1'd1, x.rd0() + 32'd1, x.rd0() - 32'd1) >=u 32'd20",
		},
		"msi": {
			"p_state.rd0() == pstate::ConfirmDowngrades",
			"c0_ops_done.rd0() == 32'd20 | c1_ops_done.rd0() == 32'd30",
			"(c0_gen_cnt.rd0() ^ c1_gen_cnt.rd1()) != c0_gen_cnt.rd0()",
		},
	}
	for name, srcs := range cases {
		bm, _ := bench.Lookup(name)
		inst := bm.New()
		for _, src := range srcs {
			expr, err := lang.ParseExpr(inst.Design, src)
			if err != nil {
				t.Fatalf("%s: ParseExpr(%q): %v", name, src, err)
			}
			if _, err := Compile(inst.Design, src); err != nil {
				t.Fatalf("%s: Compile(%q): %v", name, src, err)
			}
			checkPredicate(t, inst, expr, 300)
		}
	}
}

// TestCompileRejects keeps the rejections conditions have always had.
func TestCompileRejects(t *testing.T) {
	bm, _ := bench.Lookup("collatz")
	d := bm.New().Design
	for _, src := range []string{
		"x.wr0(32'd1) == 0'x0",                 // writes
		"mux(x.rd0() == 32'd1, 1'd1, fail<1>)", // aborts
		"nosuch.rd0() == 32'd0",                // unknown register
		"x.rd0()",                              // not 1-bit
		"zz == 1'd1",                           // unbound variable
		"fired(nosuch)",                        // unknown rule
		"fired(x.rd0() == 32'd1)",              // not a rule name
		"fired(divide, divide)",                // two arguments
		"fired(divide) == 2'd1",                // fired(rule) is 1-bit
	} {
		if _, err := Compile(d, src); err == nil {
			t.Errorf("Compile(%q) accepted", src)
		}
		if _, err := CompileCondition(d, src); err == nil {
			t.Errorf("CompileCondition(%q) accepted", src)
		}
	}
}

// TestFiredCondition: fired(rule) is set on exactly the cycles the rule
// committed, alone and combined with register reads, through both compiled
// forms; it reads the fired-rule words after the registers, and a
// condition without it reads registers only.
func TestFiredCondition(t *testing.T) {
	bm, _ := bench.Lookup("msi")
	inst := bm.New()
	d := inst.Design
	e, err := cuttlesim.New(d, cuttlesim.Options{Level: cuttlesim.LStatic, Backend: cuttlesim.Closure})
	if err != nil {
		t.Fatal(err)
	}
	nregs := len(d.Registers)
	if p, err := Compile(d, "c0_ops_done.rd0() == 32'd3"); err != nil || p.Fired || p.Reads[len(p.Reads)-1] >= nregs {
		t.Fatalf("register condition: %+v, %v; want no fired-rule reads", p, err)
	}
	type cond struct {
		src  string
		want func() bool
		eval func(sim.Engine) bool
	}
	var conds []cond
	for i, r := range d.Rules {
		for _, src := range []string{"fired(" + r.Name + ")", "fired(" + r.Name + ") & c0_ops_done.rd0()[0 +: 1] == 1'd1"} {
			p, err := Compile(d, src)
			if err != nil {
				t.Fatalf("Compile(%q): %v", src, err)
			}
			if !p.Fired || !slices.Contains(p.Reads, nregs+i/64) {
				t.Fatalf("%s reads %v (fired %v), want fired word %d", src, p.Reads, p.Fired, nregs+i/64)
			}
			eval, err := CompileCondition(d, src)
			if err != nil {
				t.Fatalf("CompileCondition(%q): %v", src, err)
			}
			name, both := r.Name, strings.Contains(src, "&")
			conds = append(conds, cond{src, func() bool {
				return e.RuleFired(name) && (!both || e.Reg("c0_ops_done").Val&1 == 1)
			}, eval})
		}
	}
	tb := inst.Bench
	if tb == nil {
		tb = sim.NopBench{}
	}
	hits := 0
	for c := 0; c < 300; c++ {
		tb.BeforeCycle(e)
		e.Cycle()
		tb.AfterCycle(e)
		for _, k := range conds {
			if got, want := k.eval(e), k.want(); got != want {
				t.Fatalf("cycle %d: %s = %v, want %v", e.CycleCount(), k.src, got, want)
			} else if got {
				hits++
			}
		}
	}
	if hits == 0 {
		t.Fatal("no fired condition ever held")
	}
}

// FuzzPredicate checks compiled conditions against the probe over
// fuzzer-chosen designs and conditions: a generated design, or a catalogue
// design when pick selects one.
func FuzzPredicate(f *testing.F) {
	f.Add(uint8(0), int64(1), int64(1))
	f.Add(uint8(1), int64(7), int64(3))
	f.Add(uint8(4), int64(-5), int64(99))
	names := bench.Names()
	f.Fuzz(func(t *testing.T, pick uint8, designSeed, condSeed int64) {
		var inst bench.Instance
		if pick%2 == 1 {
			bm, _ := bench.Lookup(names[rand.New(rand.NewSource(designSeed)).Intn(len(names))])
			inst = bm.New()
		} else {
			inst = generated(t, designSeed)
		}
		checkPredicate(t, inst, difftest.GenerateCondition(inst.Design, condSeed), 24)
	})
}

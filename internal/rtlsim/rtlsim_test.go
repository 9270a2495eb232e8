package rtlsim_test

import (
	"fmt"
	"strings"
	"testing"

	"cuttlego/internal/ast"
	"cuttlego/internal/bits"
	"cuttlego/internal/circuit"
	"cuttlego/internal/interp"
	"cuttlego/internal/netopt"
	"cuttlego/internal/rtlsim"
	"cuttlego/internal/sim"
	"cuttlego/internal/testkit"
)

// engines builds the cross-engine comparison set: the reference
// interpreter plus every rtlsim backend on both the raw and the
// netopt-optimized netlist, for each requested lowering style.
func engines(t testing.TB, build func() *ast.Design, styles []circuit.Style) map[string]sim.Engine {
	t.Helper()
	out := make(map[string]sim.Engine)
	ref, err := interp.New(build().MustCheck())
	if err != nil {
		t.Fatal(err)
	}
	out["interp"] = ref
	for _, style := range styles {
		for _, backend := range []rtlsim.Backend{rtlsim.Switch, rtlsim.Closure, rtlsim.Fused} {
			for _, opt := range []bool{false, true} {
				ckt, err := circuit.Compile(build().MustCheck(), style)
				if err != nil {
					t.Fatal(err)
				}
				tag := "raw"
				if opt {
					ckt = netopt.MustOptimize(ckt)
					tag = "opt"
				}
				s, err := rtlsim.New(ckt, rtlsim.Options{Backend: backend})
				if err != nil {
					t.Fatal(err)
				}
				out[fmt.Sprintf("rtlsim/%v/%v/%s", style, backend, tag)] = s
			}
		}
	}
	return out
}

func TestZooEquivalence(t *testing.T) {
	for _, entry := range testkit.Zoo() {
		t.Run(entry.Name, func(t *testing.T) {
			styles := []circuit.Style{circuit.StyleKoika}
			if free, err := circuit.StaticallyConflictFree(entry.Build().MustCheck()); err != nil {
				t.Fatal(err)
			} else if free {
				styles = append(styles, circuit.StyleBluespec)
			}
			testkit.Compare(t, engines(t, entry.Build, styles), 64, nil)
		})
	}
}

func TestRandomDesignEquivalence(t *testing.T) {
	for seed := int64(100); seed < 160; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			build := func() *ast.Design { return testkit.Random(seed) }
			testkit.Compare(t, engines(t, build, []circuit.Style{circuit.StyleKoika}), 32, nil)
		})
	}
}

func TestDrivenInputs(t *testing.T) {
	build := func() *ast.Design {
		d := ast.NewDesign("driven")
		d.Reg("in", ast.Bits(8), 0)
		d.Reg("acc", ast.Bits(16), 0)
		d.Rule("accumulate",
			ast.Wr0("acc", ast.Add(ast.Rd0("acc"), ast.ZeroExtend(16, ast.Rd0("in")))))
		return d
	}
	drive := func(cycle uint64, set func(string, bits.Bits)) {
		set("in", bits.New(8, cycle*5+1))
	}
	testkit.Compare(t, engines(t, build, []circuit.Style{circuit.StyleKoika, circuit.StyleBluespec}), 40, drive)
}

func TestExtCallCircuit(t *testing.T) {
	build := func() *ast.Design {
		d := ast.NewDesign("ext")
		d.Reg("x", ast.Bits(8), 2)
		d.ExtFun("twist", []int{8}, ast.Bits(8), func(a []bits.Bits) bits.Bits {
			return a[0].Mul(a[0]).Add(bits.New(8, 1))
		})
		d.Rule("r", ast.Wr0("x", ast.ExtCall("twist", ast.Rd0("x"))))
		return d
	}
	testkit.Compare(t, engines(t, build, []circuit.Style{circuit.StyleKoika, circuit.StyleBluespec}), 16, nil)
}

func TestWillFireSignals(t *testing.T) {
	for _, backend := range []rtlsim.Backend{rtlsim.Switch, rtlsim.Closure, rtlsim.Fused} {
		for _, opt := range []bool{false, true} {
			d := ast.NewDesign("wf")
			d.Reg("r", ast.Bits(8), 0)
			d.Rule("a", ast.Wr0("r", ast.C(8, 1)))
			d.Rule("b", ast.Wr0("r", ast.C(8, 2))) // always conflicts with a
			d.MustCheck()
			ckt, err := circuit.Compile(d, circuit.StyleKoika)
			if err != nil {
				t.Fatal(err)
			}
			if opt {
				ckt = netopt.MustOptimize(ckt)
			}
			s := rtlsim.MustNew(ckt, rtlsim.Options{Backend: backend})
			s.Cycle()
			if !s.RuleFired("a") || s.RuleFired("b") {
				t.Errorf("%v/opt=%v fired: a=%v b=%v, want true/false", backend, opt, s.RuleFired("a"), s.RuleFired("b"))
			}
			if got := s.Reg("r"); got != bits.New(8, 1) {
				t.Errorf("%v/opt=%v r = %v", backend, opt, got)
			}
		}
	}
}

// TestZeroAllocCycle pins the hot path: after construction, simulating a
// cycle must not allocate on any backend, including designs with external
// calls (whose argument buffers are preallocated per net and reused).
func TestZeroAllocCycle(t *testing.T) {
	build := func() *ast.Design {
		d := ast.NewDesign("hot")
		d.Reg("x", ast.Bits(8), 2)
		d.Reg("y", ast.Bits(16), 5)
		d.ExtFun("twist", []int{8}, ast.Bits(8), func(a []bits.Bits) bits.Bits {
			return a[0].Mul(a[0]).Add(bits.New(8, 1))
		})
		d.Rule("r", ast.Wr0("x", ast.ExtCall("twist", ast.Rd0("x"))))
		d.Rule("s", ast.Wr0("y", ast.Add(ast.Rd0("y"), ast.ZeroExtend(16, ast.Rd0("x")))))
		return d
	}
	for _, backend := range []rtlsim.Backend{rtlsim.Switch, rtlsim.Closure, rtlsim.Fused} {
		ckt, err := circuit.Compile(build().MustCheck(), circuit.StyleKoika)
		if err != nil {
			t.Fatal(err)
		}
		s := rtlsim.MustNew(netopt.MustOptimize(ckt), rtlsim.Options{Backend: backend})
		s.Cycle() // warm up
		if avg := testing.AllocsPerRun(100, s.Cycle); avg != 0 {
			t.Errorf("backend %v: %v allocs/cycle, want 0", backend, avg)
		}
	}
}

// TestFusedSuperops checks that the fused decoder actually fuses: a design
// whose rule guard is an equality feeding a mux, and whose scheduler emits
// and-not chains, must simulate correctly through the superop paths.
func TestFusedSuperops(t *testing.T) {
	build := func() *ast.Design {
		d := ast.NewDesign("superops")
		d.Reg("st", ast.Bits(4), 0)
		d.Reg("acc", ast.Bits(32), 1)
		d.Rule("step",
			ast.Wr0("st", ast.Add(ast.Rd0("st"), ast.C(4, 1))),
			ast.Wr0("acc", ast.If(ast.Eq(ast.Rd0("st"), ast.C(4, 7)),
				ast.Mul(ast.Rd0("acc"), ast.C(32, 3)),
				ast.Add(ast.Rd0("acc"), ast.C(32, 5)))))
		d.Rule("spoil", ast.Wr0("st", ast.C(4, 9))) // conflicts with step
		return d
	}
	testkit.Compare(t, engines(t, build, []circuit.Style{circuit.StyleKoika}), 64, nil)
}

func TestSnapshotRestore(t *testing.T) {
	entry := testkit.Zoo()[1]
	ckt, err := circuit.Compile(entry.Build().MustCheck(), circuit.StyleKoika)
	if err != nil {
		t.Fatal(err)
	}
	s := rtlsim.MustNew(ckt, rtlsim.Options{})
	sim.Run(s, nil, 5)
	snap := s.Snapshot()
	want := sim.StateOf(s)
	sim.Run(s, nil, 7)
	s.Restore(snap)
	got := sim.StateOf(s)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restore mismatch at %d", i)
		}
	}
}

func TestCircuitStats(t *testing.T) {
	entry := testkit.Zoo()[1]
	koika, err := circuit.Compile(entry.Build().MustCheck(), circuit.StyleKoika)
	if err != nil {
		t.Fatal(err)
	}
	bsc, err := circuit.Compile(entry.Build().MustCheck(), circuit.StyleBluespec)
	if err != nil {
		t.Fatal(err)
	}
	ks, bs := koika.Stats(), bsc.Stats()
	if ks.Nets == 0 || ks.Muxes == 0 {
		t.Errorf("koika stats look empty: %+v", ks)
	}
	// The static scheduler carries no dynamic read-write tracking, so its
	// netlist must be no larger than the dynamic one.
	if bs.Nets > ks.Nets {
		t.Errorf("bluespec netlist (%d nets) larger than koika (%d)", bs.Nets, ks.Nets)
	}
}

func TestHashConsing(t *testing.T) {
	// Two rules computing the same expression share subcircuits.
	d := ast.NewDesign("cse")
	d.Reg("x", ast.Bits(8), 0)
	d.Reg("y", ast.Bits(8), 0)
	d.Rule("a", ast.Wr0("x", ast.Add(ast.Rd0("x"), ast.C(8, 1))))
	d.Rule("b", ast.Wr0("y", ast.Add(ast.Rd0("x"), ast.C(8, 1))))
	d.MustCheck()
	ckt, err := circuit.Compile(d, circuit.StyleKoika)
	if err != nil {
		t.Fatal(err)
	}
	adds := 0
	for _, n := range ckt.Nets {
		if n.Kind == circuit.NBinop && n.Op == ast.OpAdd {
			adds++
		}
	}
	if adds != 1 {
		t.Errorf("found %d add nets, want 1 (hash-consing)", adds)
	}
}

func TestCompileRequiresChecked(t *testing.T) {
	if _, err := circuit.Compile(ast.NewDesign("d"), circuit.StyleKoika); err == nil {
		t.Fatal("accepted unchecked design")
	}
}

// TestNewRejectsUnknownBackend: an out-of-range backend is a construction
// error naming the bad value, not a silent run on the switch backend.
func TestNewRejectsUnknownBackend(t *testing.T) {
	ckt, err := circuit.Compile(testkit.Zoo()[0].Build().MustCheck(), circuit.StyleKoika)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []rtlsim.Options{{Backend: 7}, {Backend: -1}} {
		_, err := rtlsim.New(ckt, opts)
		if want := fmt.Sprintf("backend(%d)", int(opts.Backend)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("New(%+v) = %v, want an error naming %s", opts, err, want)
		}
	}
}

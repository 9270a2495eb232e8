package cuttlesim_test

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"cuttlego/internal/ast"
	"cuttlego/internal/bits"
	"cuttlego/internal/cuttlesim"
	"cuttlego/internal/interp"
	"cuttlego/internal/sim"
	"cuttlego/internal/testkit"
)

// allEngines builds the reference interpreter plus a Cuttlesim engine for
// every optimization level and both backends.
func allEngines(t testing.TB, build func() *ast.Design) map[string]sim.Engine {
	t.Helper()
	engines := make(map[string]sim.Engine)
	ref, err := interp.New(build().MustCheck())
	if err != nil {
		t.Fatal(err)
	}
	engines["interp"] = ref
	for _, level := range cuttlesim.Levels() {
		for _, backend := range []cuttlesim.Backend{cuttlesim.Closure, cuttlesim.Bytecode} {
			s, err := cuttlesim.New(build().MustCheck(), cuttlesim.Options{Level: level, Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			engines[fmt.Sprintf("cuttlesim/%v/%v", level, backend)] = s
		}
	}
	return engines
}

func TestZooEquivalence(t *testing.T) {
	for _, entry := range testkit.Zoo() {
		t.Run(entry.Name, func(t *testing.T) {
			testkit.Compare(t, allEngines(t, entry.Build), 64, nil)
		})
	}
}

func TestRandomDesignEquivalence(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			build := func() *ast.Design { return testkit.Random(seed) }
			testkit.Compare(t, allEngines(t, build), 32, nil)
		})
	}
}

// Property: for arbitrary seeds, the fully optimized engine matches the
// reference interpreter.
func TestQuickRandomEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		build := func() *ast.Design { return testkit.Random(seed % 100000) }
		ref, err := interp.New(build().MustCheck())
		if err != nil {
			return false
		}
		opt, err := cuttlesim.New(build().MustCheck(), cuttlesim.DefaultOptions())
		if err != nil {
			return false
		}
		for i := 0; i < 24; i++ {
			ref.Cycle()
			opt.Cycle()
			a, b := sim.StateOf(ref), sim.StateOf(opt)
			for j := range a {
				if a[j] != b[j] {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDrivenInputsEquivalence(t *testing.T) {
	// An input register driven by the testbench each cycle.
	build := func() *ast.Design {
		d := ast.NewDesign("driven")
		d.Reg("in", ast.Bits(8), 0)
		d.Reg("acc", ast.Bits(16), 0)
		d.Rule("accumulate",
			ast.Wr0("acc", ast.Add(ast.Rd0("acc"), ast.ZeroExtend(16, ast.Rd0("in")))))
		return d
	}
	drive := func(cycle uint64, set func(string, bits.Bits)) {
		set("in", bits.New(8, cycle*7+3))
	}
	testkit.Compare(t, allEngines(t, build), 50, drive)
}

func TestGoldbergWarning(t *testing.T) {
	entry := testkit.Zoo()[2] // goldberg
	s, err := cuttlesim.New(entry.Build().MustCheck(), cuttlesim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Warnings()) == 0 {
		t.Error("expected a Goldberg warning")
	}
}

func TestCoverageCounters(t *testing.T) {
	for _, backend := range []cuttlesim.Backend{cuttlesim.Closure, cuttlesim.Bytecode} {
		t.Run(backend.String(), func(t *testing.T) {
			d := ast.NewDesign("cov")
			d.Reg("x", ast.Bits(8), 0)
			d.Rule("inc",
				ast.Guard(ast.Ltu(ast.Rd0("x"), ast.C(8, 10))),
				ast.Wr0("x", ast.Add(ast.Rd0("x"), ast.C(8, 1))))
			d.MustCheck()
			s, err := cuttlesim.New(d, cuttlesim.Options{Level: cuttlesim.LStatic, Backend: backend, Coverage: true})
			if err != nil {
				t.Fatal(err)
			}
			sim.Run(s, nil, 20)
			cov := s.Coverage()
			if cov == nil {
				t.Fatal("no coverage recorded")
			}
			// The rule body root runs 20 times; the write runs only while
			// the guard passes (10 times).
			rootID := d.Rules[0].Body.ID
			if cov[rootID] != 20 {
				t.Errorf("root count = %d, want 20", cov[rootID])
			}
			var writeID int
			var find func(n *ast.Node)
			find = func(n *ast.Node) {
				if n == nil {
					return
				}
				if n.Kind == ast.KWrite {
					writeID = n.ID
				}
				find(n.A)
				find(n.B)
				find(n.C)
				for _, it := range n.Items {
					find(it)
				}
			}
			find(d.Rules[0].Body)
			if cov[writeID] != 10 {
				t.Errorf("write count = %d, want 10", cov[writeID])
			}
			s.ResetCoverage()
			if c := s.Coverage(); c[rootID] != 0 {
				t.Error("ResetCoverage did not zero counters")
			}
		})
	}
}

type recordingHook struct {
	ruleStarts, ruleEnds, ops int
	fails                     int
}

func (h *recordingHook) OnRuleStart(rule int)        { h.ruleStarts++ }
func (h *recordingHook) OnRuleEnd(rule int, ok bool) { h.ruleEnds++ }
func (h *recordingHook) OnOp(id, reg int, v uint64, ok bool) {
	h.ops++
	if !ok {
		h.fails++
	}
}

func TestHookEvents(t *testing.T) {
	d := ast.NewDesign("hooked")
	d.Reg("x", ast.Bits(8), 0)
	d.Rule("inc",
		ast.Guard(ast.Ltu(ast.Rd0("x"), ast.C(8, 3))),
		ast.Wr0("x", ast.Add(ast.Rd0("x"), ast.C(8, 1))))
	d.MustCheck()
	h := &recordingHook{}
	s, err := cuttlesim.New(d, cuttlesim.Options{Level: cuttlesim.LStatic, Hook: h})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(s, nil, 5)
	if h.ruleStarts != 5 || h.ruleEnds != 5 {
		t.Errorf("rule events = %d/%d, want 5/5", h.ruleStarts, h.ruleEnds)
	}
	// Cycles 0..2 fire (rd0, rd0, wr0 = 3 ops); cycles 3..4 fail at the
	// guard (rd0 + fail = 2 ops).
	if h.ops != 3*3+2*2 {
		t.Errorf("op events = %d, want 13", h.ops)
	}
	if h.fails != 2 {
		t.Errorf("fail events = %d, want 2", h.fails)
	}
}

func TestHookRequiresClosureBackend(t *testing.T) {
	d := ast.NewDesign("d")
	d.Reg("x", ast.Bits(1), 0)
	d.Rule("r", ast.Wr0("x", ast.C(1, 1)))
	d.MustCheck()
	_, err := cuttlesim.New(d, cuttlesim.Options{Backend: cuttlesim.Bytecode, Hook: &recordingHook{}})
	if err == nil {
		t.Fatal("expected an error for hook + bytecode")
	}
}

func TestRejectsUncheckedAndWide(t *testing.T) {
	if _, err := cuttlesim.New(ast.NewDesign("d"), cuttlesim.DefaultOptions()); err == nil {
		t.Error("accepted unchecked design")
	}
}

func TestSnapshotRestoreAllLevels(t *testing.T) {
	for _, level := range cuttlesim.Levels() {
		t.Run(level.String(), func(t *testing.T) {
			entry := testkit.Zoo()[1] // two-state machine
			s, err := cuttlesim.New(entry.Build().MustCheck(), cuttlesim.Options{Level: level})
			if err != nil {
				t.Fatal(err)
			}
			sim.Run(s, nil, 7)
			snap := s.Snapshot()
			want := sim.StateOf(s)
			sim.Run(s, nil, 9)
			s.Restore(snap)
			got := sim.StateOf(s)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("restore mismatch at reg %d: %v vs %v", i, got[i], want[i])
				}
			}
			if s.CycleCount() != 7 {
				t.Errorf("cycle count = %d", s.CycleCount())
			}
			// Replay must be deterministic.
			sim.Run(s, nil, 9)
			replay := sim.StateOf(s)
			s.Restore(snap)
			sim.Run(s, nil, 9)
			replay2 := sim.StateOf(s)
			for i := range replay {
				if replay[i] != replay2[i] {
					t.Fatalf("replay diverged at reg %d", i)
				}
			}
		})
	}
}

func TestSetRegMidSimulation(t *testing.T) {
	for _, level := range []cuttlesim.Level{cuttlesim.LNaive, cuttlesim.LNoBOC, cuttlesim.LStatic} {
		d := ast.NewDesign("d")
		d.Reg("x", ast.Bits(8), 0)
		d.Rule("inc", ast.Wr0("x", ast.Add(ast.Rd0("x"), ast.C(8, 1))))
		d.MustCheck()
		s, err := cuttlesim.New(d, cuttlesim.Options{Level: level})
		if err != nil {
			t.Fatal(err)
		}
		sim.Run(s, nil, 3)
		s.SetReg("x", bits.New(8, 100))
		s.Cycle()
		if got := s.Reg("x"); got != bits.New(8, 101) {
			t.Errorf("level %v: x = %v, want 101", level, got)
		}
	}
}

func TestAnalysisExposed(t *testing.T) {
	entry := testkit.Zoo()[0]
	s := cuttlesim.MustNew(entry.Build().MustCheck(), cuttlesim.DefaultOptions())
	if s.Analysis() == nil || len(s.Analysis().Regs) != 1 {
		t.Error("analysis not exposed")
	}
	if s.Options().Level != cuttlesim.LStatic {
		t.Error("options not recorded")
	}
}

// TestNewRejectsUnknownEnums: an out-of-range level or backend is a
// construction error naming the bad value, not a panic on the first cycle
// or a silent fallback to another configuration.
func TestNewRejectsUnknownEnums(t *testing.T) {
	for _, tc := range []struct {
		opts cuttlesim.Options
		want string
	}{
		{cuttlesim.Options{Level: -1}, "level(-1)"},
		{cuttlesim.Options{Level: 9}, "level(9)"},
		{cuttlesim.Options{Backend: 5}, "backend(5)"},
	} {
		d := testkit.Zoo()[0].Build().MustCheck()
		_, err := cuttlesim.New(d, tc.opts)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("New(%+v) = %v, want an error naming %s", tc.opts, err, tc.want)
		}
	}
}

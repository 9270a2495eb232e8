package bench_test

import (
	"fmt"
	"strings"
	"testing"

	"cuttlego/internal/ast"
	"cuttlego/internal/bench"
	"cuttlego/internal/cuttlesim"
	"cuttlego/internal/engine"
	"cuttlego/internal/interp"
	"cuttlego/internal/sim"
)

func TestSuiteBuildsAndRuns(t *testing.T) {
	for _, bm := range bench.Suite() {
		t.Run(bm.Name, func(t *testing.T) {
			m, err := bench.Measure(bm, engine.MustParse("cuttlesim(static,closure)"), 2000)
			if err != nil {
				t.Fatal(err)
			}
			if m.CPS() <= 0 {
				t.Error("no throughput measured")
			}
		})
	}
}

// TestEnginesAgreeOnEveryBenchmark is the harness's digest gate: every
// in-process engine, static and activity levels included, must land on the
// reference interpreter's final state digest after a timed 2000-cycle
// window on every catalogued design, testbench attached.
func TestEnginesAgreeOnEveryBenchmark(t *testing.T) {
	for _, bm := range append(bench.Suite(), bench.Extras()...) {
		t.Run(bm.Name, func(t *testing.T) {
			ref, err := bench.Measure(bm, engine.MustParse("interp"), 2000)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range engine.InProcess() {
				m, err := bench.Measure(bm, spec, 2000)
				if err != nil {
					t.Fatal(err)
				}
				if m.Digest != ref.Digest {
					t.Errorf("%s: state digest %016x, interp has %016x", spec, m.Digest, ref.Digest)
				}
			}
		})
	}
}

func TestProcessorWorkloadsHalt(t *testing.T) {
	for _, bm := range bench.Suite() {
		if bm.Workload != "primes" {
			continue
		}
		if n, halted := bench.HaltCycles(bm, 60_000_000); !halted {
			t.Errorf("%s did not finish primes within budget", bm.Name)
		} else if n == 0 {
			t.Errorf("%s halted immediately", bm.Name)
		}
	}
}

func TestReportsRender(t *testing.T) {
	if testing.Short() {
		t.Skip("reports time real work")
	}
	opts := bench.Options{Cycles: 1500, HaltBudget: 30_000}
	var sb strings.Builder
	if err := bench.Table1(&sb, opts); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"collatz", "fir", "fft", "rv32i", "rv32e", "rv32i-bp", "rv32i-mc", "koika-sloc"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
	sb.Reset()
	if err := bench.Fig1(&sb, opts); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rtl-koika", "rtl-opt", "vs naive", "vs opt"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Fig1 missing %q", want)
		}
	}
	sb.Reset()
	if err := bench.Fig2(&sb, opts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "rtl-bsc") {
		t.Error("Fig2 malformed")
	}
	sb.Reset()
	if err := bench.Fig3(&sb, opts); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := bench.Ablation(&sb, opts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "naive") || !strings.Contains(sb.String(), "static") {
		t.Error("Ablation malformed")
	}
}

// The headline claim: on control-heavy designs, the Cuttlesim pipeline is
// faster than the circuit-level pipeline; the ladder's top level beats its
// bottom.
func TestPaperShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	bm := bench.Suite()[3] // rv32i
	cycles := uint64(60_000)
	mc, err := bench.Measure(bm, engine.MustParse("cuttlesim(static,closure)"), cycles)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := bench.Measure(bm, engine.MustParse("rtlsim(koika,closure)"), cycles)
	if err != nil {
		t.Fatal(err)
	}
	if mc.CPS() <= mr.CPS() {
		t.Errorf("Cuttlesim (%.0f cyc/s) should beat circuit-level simulation (%.0f cyc/s) on rv32i",
			mc.CPS(), mr.CPS())
	}
	// The ladder's top beats its bottom. The gap is tens of percent, so
	// take the best of three runs per level to ride out scheduler noise on
	// shared machines.
	best := func(eng engine.Spec) float64 {
		var out float64
		for i := 0; i < 3; i++ {
			m, err := bench.Measure(bm, eng, cycles)
			if err != nil {
				t.Fatal(err)
			}
			if m.CPS() > out {
				out = m.CPS()
			}
		}
		return out
	}
	static := best(engine.MustParse("cuttlesim(static,closure)"))
	naive := best(engine.MustParse("cuttlesim(naive,closure)"))
	if static <= naive {
		t.Errorf("LStatic (%.0f cyc/s) should beat LNaive (%.0f cyc/s)", static, naive)
	}
}

func TestStateStressConformance(t *testing.T) {
	build := func() *ast.Design { return bench.StateStress(64, 4) }
	ref, err := interp.New(build().MustCheck())
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]sim.Engine{"interp": ref}
	for _, level := range cuttlesim.Levels() {
		engines[level.String()] = cuttlesim.MustNew(build().MustCheck(), cuttlesim.Options{Level: level})
	}
	d := ref.Design()
	for cycle := 0; cycle < 100; cycle++ {
		for _, e := range engines {
			e.Cycle()
		}
		want := sim.StateOf(ref)
		for name, e := range engines {
			got := sim.StateOf(e)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("cycle %d: %s reg %s diverged", cycle, name, d.Registers[i].Name)
				}
			}
		}
	}
}

func TestStressLadderPaysOff(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	bm := bench.Benchmark{Name: "stress", New: func() bench.Instance {
		return bench.Instance{Design: bench.StateStress(512, 4).MustCheck()}
	}}
	best := func(level cuttlesim.Level) float64 {
		var out float64
		for i := 0; i < 3; i++ {
			m, err := bench.Measure(bm, engine.MustParse(fmt.Sprintf("cuttlesim(%v,closure)", level)), 20_000)
			if err != nil {
				t.Fatal(err)
			}
			if m.CPS() > out {
				out = m.CPS()
			}
		}
		return out
	}
	naive := best(cuttlesim.LNaive)
	static := best(cuttlesim.LStatic)
	if static < 4*naive {
		t.Errorf("on the state-stress design LStatic (%.0f cyc/s) should be several times LNaive (%.0f cyc/s)", static, naive)
	}
}

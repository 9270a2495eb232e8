package bench

import (
	"fmt"
	"io"
	"strings"

	"cuttlego/internal/circuit"
	"cuttlego/internal/cppgen"
	"cuttlego/internal/cuttlesim"
	"cuttlego/internal/engine"
	"cuttlego/internal/verilog"
)

// Options configures the report generators.
type Options struct {
	// Cycles is the timed window per (benchmark, engine) pair.
	Cycles uint64
	// HaltBudget bounds the Table 1 run-to-completion measurement.
	HaltBudget uint64
}

// Full returns budgets comparable (in shape, not scale) to the paper's.
func Full() Options { return Options{Cycles: 2_000_000, HaltBudget: 50_000_000} }

func mark(b bool) string {
	if b {
		return "yes"
	}
	return "-"
}

// Table1 regenerates the paper's Table 1: per benchmark, the
// meta-programming and combinational flags, source-line counts for the
// design, the generated Cuttlesim model, and the generated Verilog, plus
// the cycle count of the shipped workload.
func Table1(w io.Writer, opts Options) error {
	fmt.Fprintf(w, "Table 1: benchmarks (M = meta-programmed, C = combinational)\n\n")
	fmt.Fprintf(w, "%-10s %-3s %-3s %10s %14s %12s %14s  %s\n",
		"design", "M", "C", "koika-sloc", "cuttlesim-loc", "verilog-loc", "cycles", "description")
	for _, bm := range Suite() {
		inst := bm.New()
		d := inst.Design
		koikaSLOC := d.Print().SLOC()
		cppLoc, err := cppgen.LineCount(d)
		if err != nil {
			return err
		}
		ckt, err := circuit.Compile(d, circuit.StyleKoika)
		if err != nil {
			return err
		}
		vloc := verilog.LineCount(ckt)
		cyc := "-"
		if n, halted := HaltCycles(bm, opts.HaltBudget); halted {
			cyc = fmt.Sprintf("%d", n)
		} else if inst.Bench != nil {
			cyc = fmt.Sprintf(">%d", opts.HaltBudget)
		}
		fmt.Fprintf(w, "%-10s %-3s %-3s %10d %14d %12d %14s  %s\n",
			bm.Name, mark(bm.Meta), mark(bm.Comb), koikaSLOC, cppLoc, vloc, cyc, bm.Description)
	}
	return nil
}

// Fig1 regenerates Figure 1: cycles per second of the Cuttlesim model
// versus the circuit-level simulator on the Kôika-compiled netlist, per
// benchmark, with the speedup factor. Two circuit-level columns are shown:
// the naive closure walker the seed shipped with, and the strengthened
// baseline (netopt passes + fused backend) that plays Verilator honestly.
// The paper's claim structure survives the stronger baseline: Cuttlesim's
// advantage narrows but persists.
func Fig1(w io.Writer, opts Options) error {
	fmt.Fprintf(w, "Figure 1: performance of Cuttlesim and circuit-level (Verilator-substitute) models\n")
	fmt.Fprintf(w, "window: %d cycles per engine\n\n", opts.Cycles)
	fmt.Fprintf(w, "%-10s %18s %18s %18s %9s %9s\n",
		"design", "cuttlesim (cyc/s)", "rtl-koika (cyc/s)", "rtl-opt (cyc/s)", "vs naive", "vs opt")
	grid := engines("cuttlesim(static,closure)", "rtlsim(koika,closure)", "rtlsim(koika,fused,opt)")
	cuttle, rtl, opt := grid[0], grid[1], grid[2]
	for _, bm := range Suite() {
		if err := Verify(bm, cuttle, rtl, 500); err != nil {
			return err
		}
		if err := Verify(bm, cuttle, opt, 500); err != nil {
			return err
		}
		mc, err := Measure(bm, cuttle, opts.Cycles)
		if err != nil {
			return err
		}
		mr, err := Measure(bm, rtl, opts.Cycles)
		if err != nil {
			return err
		}
		mo, err := Measure(bm, opt, opts.Cycles)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s %18.0f %18.0f %18.0f %8.2fx %8.2fx\n",
			bm.Name, mc.CPS(), mr.CPS(), mo.CPS(), mc.CPS()/mr.CPS(), mc.CPS()/mo.CPS())
	}
	return nil
}

// Fig2 regenerates Figure 2: the circuit-level simulator on the dynamic
// (Kôika-style) netlist versus the static (Bluespec-style) netlist.
// Designs whose rules statically conflict are skipped: the static
// scheduler is not cycle-equivalent for them (the commercial compiler
// would reject or reorder such designs).
func Fig2(w io.Writer, opts Options) error {
	fmt.Fprintf(w, "Figure 2: circuit-level simulation of equivalent dynamic (koika) and static (bluespec) RTL\n")
	fmt.Fprintf(w, "window: %d cycles per engine\n\n", opts.Cycles)
	fmt.Fprintf(w, "%-10s %18s %18s %9s\n", "design", "rtl-koika (cyc/s)", "rtl-bsc (cyc/s)", "ratio")
	pair := engines("rtlsim(koika,closure)", "rtlsim(bluespec,closure)")
	koika, bsc := pair[0], pair[1]
	for _, bm := range Suite() {
		free, err := circuit.StaticallyConflictFree(bm.New().Design)
		if err != nil {
			return err
		}
		if !free {
			fmt.Fprintf(w, "%-10s %18s %18s %9s\n", bm.Name, "-", "-", "n/a (static conflicts)")
			continue
		}
		if err := Verify(bm, koika, bsc, 500); err != nil {
			return err
		}
		mk, err := Measure(bm, koika, opts.Cycles)
		if err != nil {
			return err
		}
		mb, err := Measure(bm, bsc, opts.Cycles)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s %18.0f %18.0f %8.2fx\n", bm.Name, mk.CPS(), mb.CPS(), mb.CPS()/mk.CPS())
	}
	return nil
}

// Fig3 regenerates Figure 3's sensitivity study. The paper compiles its
// C++ models with GCC and Clang; this module substitutes two execution
// engines per pipeline (compiled closures vs a bytecode/switch
// interpreter) and shows that Cuttlesim's advantage is stable across them.
func Fig3(w io.Writer, opts Options) error {
	fmt.Fprintf(w, "Figure 3: engine sensitivity (substitute for the paper's GCC/Clang sweep)\n")
	fmt.Fprintf(w, "window: %d cycles per engine\n\n", opts.Cycles)
	grid := engines("cuttlesim(static,closure)", "cuttlesim(static,bytecode)",
		"rtlsim(koika,closure)", "rtlsim(koika,switch)", "rtlsim(koika,fused,opt)")
	fmt.Fprintf(w, "%-10s", "design")
	for _, e := range grid {
		fmt.Fprintf(w, " %28s", e)
	}
	fmt.Fprintln(w)
	for _, bm := range Suite() {
		fmt.Fprintf(w, "%-10s", bm.Name)
		for _, e := range grid {
			m, err := Measure(bm, e, opts.Cycles)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %22.0f cyc/s", m.CPS())
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Ablation times the rv32i benchmark at every optimization level of the
// §3.2–3.3 ladder, quantifying each refinement's payoff.
func Ablation(w io.Writer, opts Options) error {
	fmt.Fprintf(w, "Ablation: Cuttlesim optimization ladder on rv32i/primes\n")
	fmt.Fprintf(w, "window: %d cycles per level\n\n", opts.Cycles)
	fmt.Fprintf(w, "%-16s %18s %10s\n", "level", "cyc/s", "vs naive")
	bm := Suite()[3] // rv32i
	return ladder(w, bm, opts)
}

// ladder times bm at every optimization level on the closure backend.
func ladder(w io.Writer, bm Benchmark, opts Options) error {
	var naive float64
	for _, level := range cuttlesim.Levels() {
		m, err := Measure(bm, engine.MustParse(fmt.Sprintf("cuttlesim(%v,closure)", level)), opts.Cycles)
		if err != nil {
			return err
		}
		if naive == 0 {
			naive = m.CPS()
		}
		fmt.Fprintf(w, "%-16s %18.0f %9.2fx\n", level, m.CPS(), m.CPS()/naive)
	}
	return nil
}

// AblationStress times the ladder on the state-stress design (512
// registers, 4 sparse rules), the regime where transaction overhead
// dominates and each refinement's payoff is most visible.
func AblationStress(w io.Writer, opts Options) error {
	fmt.Fprintf(w, "Ablation (state stress): optimization ladder on a 512-register design\n")
	fmt.Fprintf(w, "window: %d cycles per level\n\n", opts.Cycles)
	fmt.Fprintf(w, "%-16s %18s %10s\n", "level", "cyc/s", "vs naive")
	bm := Benchmark{
		Name: "stress",
		New: func() Instance {
			return Instance{Design: StateStress(512, 4).MustCheck()}
		},
	}
	return ladder(w, bm, opts)
}

// Conformance runs the cross-pipeline equivalence matrix: every catalogued
// design against every engine configuration, compared to the reference
// interpreter. This is the report to run before trusting any timing
// number. The (design, engine) cells are independent, so they fan out over
// the worker pool; the rendered table is byte-identical for any worker
// count. The whole table is written before the error naming every
// diverged cell is returned.
func Conformance(w io.Writer, cycles uint64, workers int) error {
	return conformance(w, append(Suite(), Extras()...), cycles, workers)
}

func conformance(w io.Writer, suite []Benchmark, cycles uint64, workers int) error {
	grid := engines("cuttlesim(naive,closure)", "cuttlesim(static,closure)", "cuttlesim(static,bytecode)",
		"cuttlesim(activity,closure)", "cuttlesim(activity,bytecode)",
		"rtlsim(koika,closure)", "rtlsim(koika,fused,opt)", "rtlsim(bluespec,closure)")
	ref := engine.MustParse("interp")
	fmt.Fprintf(w, "Conformance: each engine vs the reference interpreter (%d cycles)\n\n", cycles)
	fmt.Fprintf(w, "%-10s", "design")
	for _, e := range grid {
		fmt.Fprintf(w, " %28s", e)
	}
	fmt.Fprintln(w)
	type cell struct {
		bm  Benchmark
		eng engine.Spec
	}
	var cells []cell
	skip := make([]bool, 0, len(suite)*len(grid))
	for _, bm := range suite {
		free, err := circuit.StaticallyConflictFree(bm.New().Design)
		if err != nil {
			return err
		}
		for _, e := range grid {
			cells = append(cells, cell{bm, e})
			skip = append(skip, e.Style == "bluespec" && !free)
		}
	}
	verdicts := RunParallel(len(cells), workers, func(i int) string {
		if skip[i] {
			return "n/a"
		}
		if err := Verify(cells[i].bm, ref, cells[i].eng, cycles); err != nil {
			return "DIVERGED"
		}
		return "OK"
	})
	var diverged []string
	for bi, bm := range suite {
		fmt.Fprintf(w, "%-10s", bm.Name)
		for ei, e := range grid {
			v := verdicts[bi*len(grid)+ei]
			if v == "DIVERGED" {
				diverged = append(diverged, bm.Name+"/"+e.String())
			}
			fmt.Fprintf(w, " %28s", v)
		}
		fmt.Fprintln(w)
	}
	if len(diverged) > 0 {
		return fmt.Errorf("conformance: %d cells diverged from interp: %s",
			len(diverged), strings.Join(diverged, ", "))
	}
	return nil
}

// All runs every report in order.
func All(w io.Writer, opts Options) error {
	for _, f := range []func(io.Writer, Options) error{Table1, Fig1, Fig2, Fig3, Ablation, AblationStress} {
		if err := f(w, opts); err != nil {
			return err
		}
		fmt.Fprintln(w, strings.Repeat("-", 78))
	}
	return nil
}

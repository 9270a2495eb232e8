// perf-debug replays Case Study 3: a 4-stage pipeline with idealized
// single-cycle memory retires 100 NOPs in ~2 cycles each — suspicious for
// a program with no branches. Stepping through the decode rule shows every
// NOP stalling on the scoreboard: the previous NOP's destination, x0, was
// tracked like a real dependency. The fixed design special-cases x0 and
// retires one NOP per cycle.
package main

import (
	"fmt"
	"log"

	"cuttlego/internal/cuttlesim"
	"cuttlego/internal/debug"
	"cuttlego/internal/engine"
	"cuttlego/internal/riscv"
	"cuttlego/internal/rvcore"
	"cuttlego/internal/workload"
)

func main() {
	fmt.Println("== Case study 3: performance debugging the NOP pipeline ==")
	prog := workload.Nops(100)

	run := func(cfg rvcore.Config) (rvcore.Result, []cuttlesim.RuleStat) {
		mem := riscv.NewMemory()
		mem.LoadWords(0, prog)
		d, core := rvcore.Build(cfg, mem)
		if err := d.Check(); err != nil {
			log.Fatal(err)
		}
		e, err := engine.MustParse("cuttlesim(static,closure)").Build(d, nil, nil, engine.Instrument{Profile: true})
		if err != nil {
			log.Fatal(err)
		}
		s := e.(*cuttlesim.Simulator)
		res, err := rvcore.RunProgram(s, rvcore.NewBench(core), 10_000)
		if err != nil {
			log.Fatal(err)
		}
		return res[0], s.RuleStats()
	}

	buggy := rvcore.RV32I()
	buggy.BugX0 = true
	res, stats := run(buggy)
	fmt.Printf("\nretiring 100 NOPs took %d cycles — one would assume ~1 cycle per\n", res.Cycles)
	fmt.Println("instruction on a program with no branches. Something stalls.")

	fmt.Println("\nrule profile of the suspicious run:")
	fmt.Printf("  %-12s %10s %10s %10s\n", "rule", "attempts", "commits", "aborts")
	for _, st := range stats {
		fmt.Printf("  %-12s %10d %10d %10d\n", st.Rule, st.Attempts, st.Commits, st.Aborts())
	}
	fmt.Println("  -> decode aborts on roughly every other cycle: hazard stalls.")

	// Step through the decode rule watching the scoreboard check fail.
	fmt.Println("\nstepping rule by rule through two cycles of the buggy core:")
	mem := riscv.NewMemory()
	mem.LoadWords(0, prog)
	d, core := rvcore.Build(buggy, mem)
	if err := d.Check(); err != nil {
		log.Fatal(err)
	}
	dbg, err := debug.New(d, rvcore.NewBench(core))
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		dbg.Step()
	}
	dbg.BreakOnFail("decode")
	if dbg.Continue(20) {
		fmt.Println("  stopped:", dbg.StopReason())
		if _, desc, ok := dbg.LastFailureIn("decode"); ok {
			fmt.Println("  cause:", desc)
		}
		fmt.Println("  scoreboard entry for x0 at this point:")
		fmt.Println("   ", dbg.Print("sb_0"))
		fmt.Println("  -> a NOP is ADDI x0, x0, 0; x0 is hardwired zero, yet the")
		fmt.Println("     scoreboard tracked a dependency on it. That is the bug.")
	}

	fixed, _ := run(rvcore.RV32I())
	fmt.Printf("\nwith the x0 special case: %d cycles for the same program (%.2f cycles/NOP)\n",
		fixed.Cycles, float64(fixed.Cycles)/100)
	fmt.Printf("speedup from the one-line fix: %.2fx\n", float64(res.Cycles)/float64(fixed.Cycles))
}

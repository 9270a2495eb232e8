// riscv-pipeline reproduces the flavor of Case Studies 3 and 4: it runs a
// branch-heavy benchmark on the rv32i core with the trivial pc+4 predictor
// and again with the BTB+BHT predictor, collecting Gcov-style coverage. The
// misprediction counts are read directly off the redirect line of the
// execute rule — no hardware counters — and the annotated listing shows the
// scoreboard stalls that motivate bypassing.
package main

import (
	"fmt"
	"log"
	"strings"

	"cuttlego/internal/cover"
	"cuttlego/internal/cuttlesim"
	"cuttlego/internal/engine"
	"cuttlego/internal/riscv"
	"cuttlego/internal/rvcore"
	"cuttlego/internal/workload"
)

func main() {
	prog := workload.BranchHeavy(2000)

	type outcome struct {
		res       rvcore.Result
		redirects uint64
		stalls    uint64
		listing   string
	}
	run := func(cfg rvcore.Config) outcome {
		mem := riscv.NewMemory()
		mem.LoadWords(0, prog)
		d, core := rvcore.Build(cfg, mem)
		if err := d.Check(); err != nil {
			log.Fatal(err)
		}
		e, err := engine.MustParse("cuttlesim(static,closure)").Build(d, nil, nil, engine.Instrument{Coverage: true})
		if err != nil {
			log.Fatal(err)
		}
		s := e.(*cuttlesim.Simulator)
		res, err := rvcore.RunProgram(s, rvcore.NewBench(core), 5_000_000)
		if err != nil {
			log.Fatal(err)
		}
		counts := s.Coverage()
		return outcome{
			res:       res[0],
			redirects: cover.Count(counts, cover.WritesTo(d, core.PC, "execute")),
			stalls:    cover.Count(counts, cover.FailSites(d, "decode")),
			listing:   cover.Annotate(d, counts),
		}
	}

	base := run(rvcore.RV32I())
	bp := run(rvcore.RV32IBP())

	fmt.Println("branch-prediction exploration (coverage-counted, no hardware counters):")
	fmt.Printf("%-12s %12s %12s %8s %14s %16s\n",
		"design", "cycles", "instret", "IPC", "mispredicts", "decode stalls")
	fmt.Printf("%-12s %12d %12d %8.3f %14d %16d\n",
		"baseline", base.res.Cycles, base.res.Instret, base.res.IPC, base.redirects, base.stalls)
	fmt.Printf("%-12s %12d %12d %8.3f %14d %16d\n",
		"bp", bp.res.Cycles, bp.res.Instret, bp.res.IPC, bp.redirects, bp.stalls)
	fmt.Printf("\nmispredictions went down from %d to %d; both designs computed tohost=%d\n",
		base.redirects, bp.redirects, base.res.ToHost)

	fmt.Println("\nannotated execute stage (baseline), gcov-style:")
	inExecute := false
	for _, line := range strings.Split(base.listing, "\n") {
		if strings.Contains(line, "rule execute:") {
			inExecute = true
		}
		if strings.Contains(line, "rule decode:") {
			break
		}
		if inExecute && strings.TrimSpace(line) != "" {
			fmt.Println(line)
		}
	}
}

// scheduler-fuzz is Case Study 2: functional verification with scheduler
// randomization. A good rule-based design uses its scheduler for
// performance, never for correctness, so the rv32i core must compute the
// same architectural result under every rule order — only cycle counts may
// change.
//
// The trials are independent, so they fan out over bench.RunParallel's
// worker pool (one worker per CPU); the report is printed in trial order
// and is byte-identical to a sequential run.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"cuttlego/internal/bench"
	"cuttlego/internal/engine"
	"cuttlego/internal/riscv"
	"cuttlego/internal/rvcore"
	"cuttlego/internal/workload"
)

func main() {
	prog := workload.Primes(60)
	want := workload.PrimesExpected(60)
	fmt.Printf("primes(60) ground truth: %d\n\n", want)
	fmt.Printf("%-36s %10s %10s %8s\n", "schedule", "tohost", "cycles", "IPC")

	// Draw the schedule permutations up front so trial i's schedule does
	// not depend on how many workers run (the rand stream is shared).
	const trials = 10
	r := rand.New(rand.NewSource(1))
	var perms [][]int
	probe, _ := rvcore.Build(rvcore.RV32I(), riscv.NewMemory())
	for trial := 0; trial < trials; trial++ {
		perms = append(perms, r.Perm(len(probe.Schedule)))
	}

	type outcome struct {
		line string
		err  error
	}
	results := bench.RunParallel(trials, 0, func(trial int) outcome {
		mem := riscv.NewMemory()
		mem.LoadWords(0, prog)
		d, core := rvcore.Build(rvcore.RV32I(), mem)
		orig := append([]string(nil), d.Schedule...)
		for i, j := range perms[trial] {
			d.Schedule[i] = orig[j]
		}
		if err := d.Check(); err != nil {
			return outcome{err: err}
		}
		s, err := engine.MustParse("cuttlesim(static,closure)").Build(d, nil, nil, engine.Instrument{})
		if err != nil {
			return outcome{err: err}
		}
		res, err := rvcore.RunProgram(s, rvcore.NewBench(core), 10_000_000)
		if err != nil {
			return outcome{err: fmt.Errorf("schedule %v: %w", d.Schedule, err)}
		}
		status := "ok"
		if res[0].ToHost != want {
			status = "WRONG RESULT"
		}
		line := fmt.Sprintf("%-36v %10d %10d %8.3f  %s",
			d.Schedule, res[0].ToHost, res[0].Cycles, res[0].IPC, status)
		if res[0].ToHost != want {
			return outcome{line: line, err: fmt.Errorf("the design depends on its scheduler for functional correctness")}
		}
		return outcome{line: line}
	})
	for _, res := range results {
		if res.line != "" {
			fmt.Println(res.line)
		}
		if res.err != nil {
			log.Fatal(res.err)
		}
	}
	fmt.Println("\nall schedules agree on the architectural result; the design is")
	fmt.Println("correct independently of rule ordering (cycle counts differ, as expected).")
}

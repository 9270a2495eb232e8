// Command cuttlesim runs a design on the simulation pipeline of choice and
// reports what happened: final register values, rule firing statistics, an
// optional Gcov-style annotated listing, or a VCD waveform.
//
// Usage:
//
//	cuttlesim [-engine name] [-cycles N] [-timeout D] [-maxerrors N]
//	          [-cover] [-profile] [-vcd file] [-regs] <design>
//
// -engine takes an engine registry name (see internal/engine), default
// cuttlesim(static,closure): for example cuttlesim(naive,bytecode),
// interp, rtlsim(koika,switch), or rtlsim(koika,fused,opt) — the netopt
// pipeline plus the fused backend, the strengthened circuit-level
// configuration. -cover requires a cuttlesim engine; -profile reports
// only for one.
//
// Exit codes: 0 on success, 1 when the input is at fault (including a run
// stopped by -timeout), 2 on an internal toolchain error.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"cuttlego/internal/bench"
	"cuttlego/internal/cli"
	"cuttlego/internal/cover"
	"cuttlego/internal/cuttlesim"
	"cuttlego/internal/engine"
	"cuttlego/internal/sim"
	"cuttlego/internal/vcd"
)

func main() {
	fs := cli.Flags("cuttlesim")
	var (
		engName   = fs.String("engine", "cuttlesim(static,closure)", "engine registry name, e.g. interp or rtlsim(koika,fused,opt)")
		cycles    = fs.Uint64("cycles", 1000, "cycles to simulate")
		timeout   = fs.Duration("timeout", 0, "wall-clock budget for the simulation (0 = none)")
		maxErrors = fs.Int("maxerrors", 0, "cap on reported frontend errors (0 = default, -1 = unlimited)")
		covFlag   = fs.Bool("cover", false, "print a Gcov-style annotated listing")
		profile   = fs.Bool("profile", false, "print per-rule attempt/commit statistics")
		vcdPath   = fs.String("vcd", "", "write a VCD waveform to this file")
		regs      = fs.Bool("regs", true, "print final register values")
	)
	cli.Parse(fs, os.Args[1:])
	if fs.NArg() != 1 {
		cli.Usage("usage: cuttlesim [flags] <design>\ncatalogued designs: %v\n", bench.Names())
	}
	if err := run(fs.Arg(0), *engName, *cycles, *timeout, *maxErrors, *covFlag, *profile, *vcdPath, *regs); err != nil {
		cli.Fail("cuttlesim", err)
	}
}

func run(ref, engName string, cycles uint64,
	timeout time.Duration, maxErrors int, coverage, profile bool, vcdPath string, printRegs bool) error {
	spec, err := engine.Parse(engName)
	if err != nil {
		return err
	}
	inst, err := bench.LoadWith(ref, bench.LoadOpts{MaxErrors: maxErrors})
	if err != nil {
		return err
	}
	d := inst.Design
	eng, err := spec.Build(d, inst.Native, nil, engine.Instrument{Coverage: coverage, Profile: profile})
	if err != nil {
		return err
	}
	cs, _ := eng.(*cuttlesim.Simulator)
	if coverage && cs == nil {
		return fmt.Errorf("-cover requires the cuttlesim engine")
	}
	if cs != nil {
		for _, w := range cs.Warnings() {
			fmt.Fprintln(os.Stderr, "warning:", w)
		}
	}

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if vcdPath != "" {
		f, err := os.Create(vcdPath)
		if err != nil {
			return err
		}
		defer f.Close()
		n, err := vcd.Trace(f, eng, inst.Bench, cycles)
		if err != nil {
			return err
		}
		fmt.Printf("simulated %d cycles into %s\n", n, vcdPath)
	} else {
		n, err := sim.RunContext(ctx, eng, inst.Bench, cycles)
		if err != nil {
			return fmt.Errorf("simulation stopped after %d of %d cycles: %w", n, cycles, err)
		}
		fmt.Printf("simulated %d cycles of %s on %s\n", n, d.Name, spec)
	}

	fmt.Println("\nrule status (last cycle):")
	for _, name := range d.Schedule {
		status := "failed"
		if eng.RuleFired(name) {
			status = "fired"
		}
		fmt.Printf("  %-28s %s\n", name, status)
	}

	if printRegs {
		fmt.Println("\nregisters:")
		for _, r := range d.Registers {
			fmt.Printf("  %-28s %s\n", r.Name, r.Type.Format(eng.Reg(r.Name)))
		}
	}

	if profile && cs != nil {
		fmt.Println("\nrule profile:")
		fmt.Printf("  %-28s %12s %12s %12s\n", "rule", "attempts", "commits", "aborts")
		for _, st := range cs.RuleStats() {
			fmt.Printf("  %-28s %12d %12d %12d\n", st.Rule, st.Attempts, st.Commits, st.Aborts())
		}
	}

	if coverage {
		fmt.Println("\ncoverage:")
		fmt.Print(cover.Annotate(d, cs.Coverage()))
	}
	return nil
}

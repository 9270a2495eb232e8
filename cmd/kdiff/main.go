// Command kdiff is the differential-testing front door: it generates random
// well-typed designs (or loads named ones), runs every requested simulation
// engine in lockstep against the reference interpreter, and shrinks any
// divergence to a minimal .koika reproducer.
//
// Usage:
//
//	kdiff [-seed N] [-count N] [-cycles N] [-engines list] [-shrink]
//	      [-o dir] [-progress regs] [-stall N] [-check preds]
//	      [-expect-bug] [-parallel N] [design ...]
//
// With no positional arguments kdiff fuzzes: seeds seed..seed+count-1 are
// generated and swept in parallel. With arguments each one is a catalogued
// design name or a .koika file run once through the matrix — the replay mode
// the header of every reproducer file points at.
//
// Exit codes: 0 when all runs agree, 1 when a divergence was found (inverted
// by -expect-bug, which is how CI asserts the injected msi-buggy deadlock
// stays detectable), 2 on internal errors.
package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"cuttlego/internal/ast"
	"cuttlego/internal/bench"
	"cuttlego/internal/cli"
	"cuttlego/internal/difftest"
)

func main() {
	fs := cli.Flags("kdiff")
	seed := fs.Int64("seed", 1, "first generator seed")
	count := fs.Int("count", 100, "number of consecutive seeds to sweep")
	cycles := fs.Uint64("cycles", 200, "lockstep window in cycles")
	engines := fs.String("engines", "cuttlesim,rtlsim", "engine matrix: comma list of cuttlesim, rtlsim, gomodel, native, single engine names, or all")
	shrink := fs.Bool("shrink", true, "shrink failures to a minimal reproducer")
	outDir := fs.String("o", ".", "directory for reproducer .koika files")
	progress := fs.String("progress", "", "comma list of progress registers for the deadlock oracle")
	stall := fs.Uint64("stall", 0, "deadlock oracle: fail after this many cycles without progress (0 = off)")
	checks := fs.String("check", "", "deadlock oracle predicates, e.g. p_state==1,c0_ops_done>=1")
	expectBug := fs.Bool("expect-bug", false, "invert the exit code: succeed only if a failure is found")
	parallel := fs.Int("parallel", 0, "worker cap for the generative sweep (0 = GOMAXPROCS)")
	cli.Parse(fs, os.Args[1:])

	opts := difftest.Options{Cycles: *cycles, Profile: true, StallWindow: *stall}
	specs, err := difftest.Matrix(*engines)
	if err != nil {
		cli.Fail("kdiff", err)
	}
	opts.Engines = specs
	if *progress != "" {
		opts.Progress = strings.Split(*progress, ",")
	}
	if opts.StallChecks, err = parseChecks(*checks); err != nil {
		cli.Fail("kdiff", err)
	}

	var found int
	if fs.NArg() > 0 {
		found = replay(fs.Args(), opts, *shrink, *outDir)
	} else {
		found = sweep(*seed, *count, *parallel, opts, *shrink, *outDir)
	}

	if *expectBug {
		if found == 0 {
			cli.Fail("kdiff", errors.New("expected a failure, but every run agreed"))
		}
		fmt.Printf("kdiff: %d expected failure(s) found\n", found)
		return
	}
	if found > 0 {
		cli.Fail("kdiff", fmt.Errorf("%d run(s) diverged", found))
	}
}

// sweep is the generative mode: every seed in [seed, seed+count) builds a
// random design and runs the matrix. Runs are parallel; reporting and
// shrinking stay sequential and deterministic.
func sweep(seed int64, count, workers int, opts difftest.Options, shrink bool, outDir string) int {
	type result struct {
		seed int64
		fail *difftest.Failure
	}
	results := bench.RunParallel(count, workers, func(i int) result {
		s := seed + int64(i)
		return result{s, difftest.Run(builder(difftest.Generate(s)), opts)}
	})
	found := 0
	for _, r := range results {
		if r.fail == nil {
			continue
		}
		found++
		fmt.Printf("kdiff: seed %d: %v\n", r.seed, r.fail)
		report(difftest.Generate(r.seed), opts, r.fail, r.seed,
			filepath.Join(outDir, fmt.Sprintf("kdiff-seed%d.koika", r.seed)), shrink)
	}
	fmt.Printf("kdiff: %d/%d seeds diverged (cycles=%d, %d engines)\n",
		found, count, opts.Cycles, len(opts.Engines))
	return found
}

// replay runs named or file designs once each through the matrix.
func replay(refs []string, opts difftest.Options, shrink bool, outDir string) int {
	found := 0
	for _, ref := range refs {
		inst, err := bench.Load(ref)
		if err != nil {
			cli.Fail("kdiff", err)
		}
		build := func() *ast.Design {
			inst, err := bench.Load(ref)
			if err != nil {
				panic(err)
			}
			return inst.Design
		}
		fail := difftest.Run(build, opts)
		if fail == nil {
			fmt.Printf("kdiff: %s: ok (%d cycles, %d engines)\n", ref, opts.Cycles, len(opts.Engines))
			continue
		}
		found++
		fmt.Printf("kdiff: %s: %v\n", ref, fail)
		name := strings.TrimSuffix(filepath.Base(ref), ".koika")
		report(inst.Design, opts, fail, 0,
			filepath.Join(outDir, fmt.Sprintf("kdiff-%s.koika", name)), shrink)
	}
	return found
}

// report shrinks a failing design (when asked) and writes the reproducer.
func report(d *ast.Design, opts difftest.Options, fail *difftest.Failure, seed int64, path string, shrink bool) {
	cycles := opts.Cycles
	if shrink {
		res := difftest.Shrink(d, opts, fail)
		fmt.Printf("kdiff: shrunk to %d rule(s), %d register(s), %d cycle(s) in %d attempt(s)\n",
			len(res.Design.Rules), len(res.Design.Registers), res.Cycles, res.Attempts)
		d, cycles, fail = res.Design, res.Cycles, res.Failure
	}
	if err := difftest.WriteRepro(path, d, cycles, fail, seed); err != nil {
		fmt.Fprintf(os.Stderr, "kdiff: writing %s: %v\n", path, err)
		return
	}
	fmt.Printf("kdiff: wrote %s\n", path)
}

// builder wraps an unchecked design as the fresh-checked-copy factory Run
// wants.
func builder(d *ast.Design) func() *ast.Design {
	return func() *ast.Design {
		c := d.Clone()
		c.MustCheck()
		return c
	}
}

// parseChecks parses "reg==N,reg>=N" predicate lists for the deadlock
// oracle.
func parseChecks(s string) ([]difftest.Check, error) {
	if s == "" {
		return nil, nil
	}
	var out []difftest.Check
	for _, item := range strings.Split(s, ",") {
		var op string
		for _, cand := range []string{"==", "!=", ">="} {
			if strings.Contains(item, cand) {
				op = cand
				break
			}
		}
		if op == "" {
			return nil, fmt.Errorf("check %q: want reg==N, reg!=N, or reg>=N", item)
		}
		reg, val, _ := strings.Cut(item, op)
		v, err := strconv.ParseUint(strings.TrimSpace(val), 0, 64)
		if err != nil {
			return nil, fmt.Errorf("check %q: bad value: %v", item, err)
		}
		out = append(out, difftest.Check{Reg: strings.TrimSpace(reg), Op: op, Val: v})
	}
	return out, nil
}

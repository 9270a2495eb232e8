// Command kbench regenerates the paper's evaluation artifacts: Table 1,
// Figures 1–3, and the optimization-ladder ablation.
//
// Usage:
//
//	kbench [-table1] [-fig1] [-fig2] [-fig3] [-ablation] [-verify]
//	       [-cycles N] [-halt-budget N] [-full] [-parallel N]
//	       [-cpuprofile PATH] [-memprofile PATH]
//	       [-chaos URL | -chaos-verify URL] [-chaos-ledger PATH]
//	       [-chaos-for D] [-chaos-sessions N] [-chaos-seed N]
//	       [-swarm URL] [-swarm-sessions N] [-swarm-rate R] [-swarm-steps N]
//	       [-swarm-cycles N] [-swarm-forks N] [-swarm-design NAME]
//
// With no selection flags, every report runs. -full uses paper-scale budgets
// (minutes); the default budgets finish in seconds.
//
// -verify runs the conformance matrix: every catalogued design on every
// engine configuration against the reference interpreter. Any DIVERGED cell
// exits 1 after the table is printed. -parallel N runs the matrix's
// independent cells on an N-worker pool (0 = one per CPU); the table is
// byte-identical to a sequential run.
//
// -chaos URL drives a ksimd daemon with a seeded crash-test workload —
// random step batches over several durable sessions, frequent checkpoints —
// and journals every acknowledged checkpoint to -chaos-ledger. The daemon
// dying mid-run is the expected outcome (scripts/ksimd-crash.sh SIGKILLs
// it) and exits 0 with the ledger flushed; -chaos-for bounds the run when
// nobody kills the daemon. After a restart, -chaos-verify URL replays the
// ledger against the revived daemon: every acknowledged checkpoint must
// resurrect with exactly the digest the daemon promised, match an
// in-process replay of the same design to the same cycle, and keep
// simulating in lockstep. Any acknowledged-then-lost state fails the run.
//
// -swarm URL is the fleet smoke: a load generator against a ksimd daemon
// or a ksimd -router fleet. An open-loop arrival process creates
// -swarm-sessions concurrent sessions at -swarm-rate arrivals/sec, steps
// each -swarm-steps times in -swarm-cycles chunks, storms the fleet with
// -swarm-forks copy-on-write forks per session, and (against a router)
// forces one live migration. Any StateDigest parity violation across forks
// or migrations, or any failed request beyond deliberate load shedding,
// fails the run. The perfbench serve workload times the same RPC path.
//
// -cpuprofile and -memprofile write runtime/pprof profiles covering the
// selected jobs (the heap profile is snapshotted at exit), so the
// simulator's own hot spots can be inspected with go tool pprof.
//
// Exit codes: 0 on success, 1 on input errors, divergences or failed
// smoke checks, 2 on an internal toolchain error.
package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"cuttlego/internal/bench"
	"cuttlego/internal/cli"
)

func main() {
	fs := cli.Flags("kbench")
	var (
		table1   = fs.Bool("table1", false, "regenerate Table 1")
		fig1     = fs.Bool("fig1", false, "regenerate Figure 1")
		fig2     = fs.Bool("fig2", false, "regenerate Figure 2")
		fig3     = fs.Bool("fig3", false, "regenerate Figure 3")
		ablation = fs.Bool("ablation", false, "run the optimization-ladder ablations")
		verify   = fs.Bool("verify", false, "run the cross-pipeline conformance matrix")
		full     = fs.Bool("full", false, "use paper-scale budgets")
		cycles   = fs.Uint64("cycles", 0, "override the timed window (cycles)")
		haltB    = fs.Uint64("halt-budget", 0, "override the Table 1 run-to-completion budget")
		parallel = fs.Int("parallel", 1, "worker pool size for the -verify matrix (0 = one per CPU)")
		swarmURL = fs.String("swarm", "", "fleet smoke: open-loop load against the ksimd daemon or router at this URL")
		swarmN   = fs.Int("swarm-sessions", 48, "concurrent sessions created by -swarm")
		swarmR   = fs.Float64("swarm-rate", 50, "session arrivals per second in -swarm mode")
		swarmS   = fs.Int("swarm-steps", 10, "step RPCs per -swarm session")
		swarmC   = fs.Uint64("swarm-cycles", 256, "cycles per -swarm step RPC")
		swarmF   = fs.Int("swarm-forks", 8, "copy-on-write forks per session in the -swarm fork storm")
		swarmMig = fs.Bool("swarm-migrate", true, "force one live migration during -swarm (routers only)")
		swarmDes = fs.String("swarm-design", "collatz", "self-driving catalogue design driven by -swarm")
		chaosURL = fs.String("chaos", "", "run the crash-test workload against the ksimd daemon at this URL")
		chaosVfy = fs.String("chaos-verify", "", "verify a restarted ksimd daemon at this URL against the chaos ledger")
		chaosLed = fs.String("chaos-ledger", "chaos-ledger.json", "checkpoint ledger path for -chaos / -chaos-verify")
		chaosFor = fs.Duration("chaos-for", 20*time.Second, "bound the -chaos run when the daemon survives")
		chaosN   = fs.Int("chaos-sessions", 4, "concurrent sessions driven by -chaos")
		chaosSd  = fs.Int64("chaos-seed", 1, "seed for the -chaos workload schedule")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the selected jobs to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile (snapshotted at exit) to this file")
	)
	cli.Parse(fs, os.Args[1:])
	if fs.NArg() != 0 {
		cli.Usage("usage: kbench [flags]; run kbench -h for the flag list\n")
	}

	// Profiles must be flushed on every exit path, including cli.Fail's
	// os.Exit, so failures route through fail() below.
	stopProfiles := func() {}
	if *cpuProf != "" || *memProf != "" {
		var cpuFile *os.File
		if *cpuProf != "" {
			f, err := os.Create(*cpuProf)
			if err != nil {
				cli.Fail("kbench", err)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				cli.Fail("kbench", err)
			}
			cpuFile = f
		}
		stopProfiles = func() {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			if *memProf != "" {
				f, err := os.Create(*memProf)
				if err != nil {
					fmt.Fprintf(os.Stderr, "kbench: memprofile: %v\n", err)
					return
				}
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintf(os.Stderr, "kbench: memprofile: %v\n", err)
				}
				f.Close()
			}
		}
	}
	fail := func(err error) {
		stopProfiles()
		cli.Fail("kbench", err)
	}

	opts := bench.Options{Cycles: 200_000, HaltBudget: 5_000_000}
	if *full {
		opts = bench.Full()
	}
	if *cycles != 0 {
		opts.Cycles = *cycles
	}
	if *haltB != 0 {
		opts.HaltBudget = *haltB
	}

	type job struct {
		sel bool
		run func() error
	}
	jobs := []job{
		{*table1, func() error { return bench.Table1(os.Stdout, opts) }},
		{*fig1, func() error { return bench.Fig1(os.Stdout, opts) }},
		{*fig2, func() error { return bench.Fig2(os.Stdout, opts) }},
		{*fig3, func() error { return bench.Fig3(os.Stdout, opts) }},
		{*ablation, func() error {
			if err := bench.Ablation(os.Stdout, opts); err != nil {
				return err
			}
			fmt.Println()
			return bench.AblationStress(os.Stdout, opts)
		}},
		{*verify, func() error { return bench.Conformance(os.Stdout, 1000, *parallel) }},
	}
	// -swarm and the chaos modes are explicit-only jobs: they never run
	// when no report is selected, so the default invocation's output is
	// unchanged.
	if *chaosURL != "" {
		if err := runChaos(os.Stdout, *chaosURL, *chaosN, *chaosSd, *chaosFor, *chaosLed); err != nil {
			fail(err)
		}
		stopProfiles()
		return
	}
	if *chaosVfy != "" {
		if err := runChaosVerify(os.Stdout, *chaosVfy, *chaosLed); err != nil {
			fail(err)
		}
		stopProfiles()
		return
	}
	if *swarmURL != "" {
		cfg := swarmConfig{
			sessions: *swarmN, rate: *swarmR, steps: *swarmS, cycles: *swarmC,
			forks: *swarmF, migrate: *swarmMig, design: *swarmDes,
		}
		if err := runSwarm(os.Stdout, *swarmURL, cfg); err != nil {
			fail(err)
		}
		stopProfiles()
		return
	}
	any := false
	for _, j := range jobs {
		if j.sel {
			any = true
		}
	}
	for _, j := range jobs {
		if !any || j.sel {
			if err := j.run(); err != nil {
				fail(err)
			}
			fmt.Println()
		}
	}
	stopProfiles()
}

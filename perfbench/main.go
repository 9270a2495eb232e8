// Command perfbench is the repository's end-to-end benchmark. One run
// executes one workload for a fixed time and prints every metric by name
// and unit, followed by a one-line JSON result:
//
//	bash perfbench/run.sh --workload simulate|debug|serve --seed N --seconds S --trace 0|1
//
// Workloads:
//
//   - simulate: batch stepping in process on the cuttlesim, rtlsim and
//     native engines over rv32i (a seeded RISC-V program), msi and fft.
//   - debug: ksimd daemons on loopback driven through kclient: msi
//     sessions stepped under a conditional breakpoint, with trace recording
//     on, on the native tier, and a seeded query set over a recording.
//   - serve: a router in front of two daemons sharing one store, loaded by
//     two closed-loop clients that each own eight collatz sessions.
//
// Each workload's timed phase runs in rounds. The gated rates are medians
// over the rounds, and setup_s is the median of set-ups spread through the
// timed phase, so host drift meets both alike.
//
// Every output is checked (engine digests against each other and against
// the reference interpreter, breakpoint hits and query answers against an
// in-process oracle, every served session against an in-process replay);
// a failed check counts as a failed operation. With --trace 1 the run
// records spans around each call into a layer, reports the per-layer
// metrics instead of the end-to-end ones, and writes the spans to
// <out>/spans/<workload>-seed<N>.jsonl.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"cuttlego/internal/native"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is what a workload needs from the command line and the run.
type config struct {
	seed   int64
	budget budget
	traced bool   // per-layer run
	tmp    string // per-run temp dir, removed at exit
	tr     *tracer
	rep    *report
}

// budget bounds a timed phase: by wall time in real runs, or by a fixed
// round count (the tests use rounds, so counts repeat exactly).
type budget struct {
	seconds float64
	rounds  int
}

// more returns the loop condition of a timed phase that starts now.
func (b budget) more() func(round int) bool {
	if b.rounds > 0 {
		return func(i int) bool { return i < b.rounds }
	}
	deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	return func(int) bool { return time.Now().Before(deadline) }
}

type workloadFunc func(ctx context.Context, cfg *config) error

var workloads = map[string]workloadFunc{
	"simulate": runSimulate,
	"debug":    runDebug,
	"serve":    runServe,
}

// options are one run's parameters.
type options struct {
	workload string
	seed     int64
	budget   budget
	trace    bool
	out      string // directory for span files
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: simulate, debug or serve")
	seed := fs.Int64("seed", 1, "seed all inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics and writing spans")
	out := fs.String("out", ".bench_build/perfbench", "directory for span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload simulate|debug|serve, --seconds > 0, --trace 0|1\n")
		return 2
	}
	return execute(options{workload: *name, seed: *seed, budget: budget{seconds: *seconds},
		trace: *trace == 1, out: *out}, stdout, stderr)
}

// execute runs one workload and prints its report; it returns the exit code.
func execute(o options, stdout, stderr io.Writer) int {
	if err := preflight(); err != nil {
		fmt.Fprintf(stderr, "perfbench: preflight: %v\n", err)
		return 2
	}
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(tmp)

	cfg := &config{seed: o.seed, budget: o.budget, traced: o.trace, tmp: tmp,
		tr: newTracer(o.trace), rep: newReport()}
	fp := hostFingerprint(tmp)
	total0, steal0, ok0 := cpuTicks()
	err = workloads[o.workload](context.Background(), cfg)
	if total1, steal1, ok1 := cpuTicks(); ok0 && ok1 && total1 > total0 {
		fp.StealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	// Whatever happened, no simulator subprocess may outlive the run.
	if n := native.Live(); !cfg.rep.check(n == 0, "%d native simulator subprocesses left alive", n) {
		native.KillAll(5 * time.Second)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	set := endToEnd
	if cfg.traced {
		set = perLayer
		spans := cfg.tr.all()
		cfg.rep.set("trace.spans", float64(len(spans)))
		printSelfTimes(stdout, spans)
		path := filepath.Join(o.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := writeJSONLines(path, spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	fmt.Fprintf(stdout, "workload %s, seed %d\n", o.workload, o.seed)
	if err := cfg.rep.print(stdout, fp, set); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// preflight checks every prerequisite up front and names the first one
// missing: the go tool (the native tier compiles designs with it), a
// writable temp dir, and a loopback port.
func preflight() error {
	if _, err := exec.LookPath("go"); err != nil {
		return fmt.Errorf("the go tool is not on PATH (the native tier needs it): %w", err)
	}
	dir, err := os.MkdirTemp("", "perfbench-preflight-")
	if err != nil {
		return fmt.Errorf("temp dir %s is not writable: %w", os.TempDir(), err)
	}
	defer os.RemoveAll(dir)
	if err := os.WriteFile(filepath.Join(dir, "probe"), []byte("ok"), 0o644); err != nil {
		return fmt.Errorf("temp dir %s is not writable: %w", os.TempDir(), err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("cannot listen on a loopback port: %w", err)
	}
	return ln.Close()
}

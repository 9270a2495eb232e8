// Command kdbg is the interactive debugger: the gdb-like experience of the
// paper's case studies at a prompt. It steps by cycle, breaks on rules and
// FAIL sites, sets watchpoints, prints registers with enum/struct
// formatting, and executes in reverse.
//
// Usage:
//
//	kdbg <design>
//	kdbg -revcd TRACEDIR [-from N] [-to N]
//
// Sessions hosted by a ksimd daemon are debugged remotely through kdap, the
// Debug Adapter Protocol bridge, from an IDE or any DAP client.
//
// With -revcd, kdbg re-emits a VCD document on stdout from a trace-store
// directory (a ksimd session's <store>/sessions/<id>/trace), offline and
// without a daemon; -from/-to clamp the cycle window (-to 0 means the end
// of the recording).
//
// Commands:
//
//	step [n]          run n cycles (default 1)
//	continue [n]      run until a breakpoint fires (budget n, default 100000)
//	break rule NAME   break when NAME starts
//	break fail [NAME] break on any abort (optionally only in rule NAME)
//	break write REG   break when REG is written
//	watch REG         stop when REG's committed value changes
//	clear             remove all breakpoints and watchpoints
//	print [REG]       print one register (or all)
//	rules             show which rules fired last cycle
//	trace             show recent execution events
//	reverse [n]       step n cycles backwards (default 1)
//	quit
package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"

	"cuttlego/internal/bench"
	"cuttlego/internal/cli"
	"cuttlego/internal/debug"
	"cuttlego/internal/faultinj"
	"cuttlego/internal/tracedb"
)

func main() {
	fs := cli.Flags("kdbg")
	maxErrors := fs.Int("maxerrors", 0, "cap on reported frontend errors (0 = default, -1 = unlimited)")
	revcd := fs.String("revcd", "", "re-emit a VCD on stdout from this trace-store directory and exit")
	from := fs.Uint64("from", 0, "with -revcd: first cycle of the window")
	to := fs.Uint64("to", 0, "with -revcd: last cycle of the window, inclusive (0 = end of recording)")
	cli.Parse(fs, os.Args[1:])
	if *revcd != "" {
		if fs.NArg() != 0 {
			cli.Usage("usage: kdbg -revcd TRACEDIR [-from N] [-to N]\n")
		}
		r, err := tracedb.Open(*revcd, faultinj.OS())
		if err != nil {
			cli.Fail("kdbg", err)
		}
		end := *to
		if end == 0 {
			end = ^uint64(0)
		}
		if err := r.WriteVCD(os.Stdout, *from, end); err != nil {
			cli.Fail("kdbg", err)
		}
		return
	}
	if fs.NArg() != 1 {
		cli.Usage("usage: kdbg [-maxerrors N] <design>\ncatalogued designs: %v\n", bench.Names())
	}
	inst, err := bench.LoadWith(fs.Arg(0), bench.LoadOpts{MaxErrors: *maxErrors})
	if err != nil {
		cli.Fail("kdbg", err)
	}
	dbg, err := debug.New(inst.Design, inst.Bench)
	if err != nil {
		cli.Fail("kdbg", err)
	}
	fmt.Printf("kdbg: debugging %s (%d registers, %d rules). Type 'help'.\n",
		inst.Design.Name, len(inst.Design.Registers), len(inst.Design.Rules))
	repl(dbg)
}

func repl(dbg *debug.Debugger) {
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Printf("(kdbg @%d) ", dbg.CycleCount())
		if !sc.Scan() {
			return
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		arg := func(i int, def string) string {
			if len(fields) > i {
				return fields[i]
			}
			return def
		}
		num := func(i int, def uint64) uint64 {
			if len(fields) > i {
				if n, err := strconv.ParseUint(fields[i], 10, 64); err == nil {
					return n
				}
			}
			return def
		}
		rest := func() []string { return fields[1:] }
		if err := dispatch(dbg, fields[0], arg, num, rest); err != nil {
			if err == errQuit {
				return
			}
			fmt.Println("error:", err)
		}
	}
}

var errQuit = fmt.Errorf("quit")

func dispatch(dbg *debug.Debugger, cmd string, arg func(int, string) string, num func(int, uint64) uint64, rest func() []string) error {
	switch cmd {
	case "quit", "q", "exit":
		return errQuit
	case "help", "h":
		fmt.Println("commands: step continue break when watch clear print rules trace reverse quit")
		fmt.Println("  when <expr>   e.g.: when p_state.rd0() == pstate::ConfirmDowngrades")
	case "step", "s":
		for i := uint64(0); i < num(1, 1); i++ {
			dbg.Step()
		}
		fmt.Println(dbg.RuleStatus())
	case "continue", "c":
		if dbg.Continue(num(1, 100_000)) {
			fmt.Println("stopped:", dbg.StopReason())
		} else {
			fmt.Println("budget exhausted, no breakpoint hit")
		}
	case "break", "b":
		switch arg(1, "") {
		case "rule":
			dbg.BreakOnRule(arg(2, ""))
		case "fail":
			dbg.BreakOnFail(arg(2, ""))
		case "write":
			dbg.BreakOnWrite(arg(2, ""))
		default:
			return fmt.Errorf("break rule|fail|write ...")
		}
		fmt.Println("breakpoint set")
	case "watch", "w":
		dbg.Watch(arg(1, ""))
		fmt.Println("watchpoint set")
	case "when":
		src := strings.Join(rest(), " ")
		if err := dbg.BreakWhenSource(src); err != nil {
			return err
		}
		fmt.Println("condition set")
	case "clear":
		dbg.ClearBreakpoints()
	case "print", "p":
		if r := arg(1, ""); r != "" {
			fmt.Println(dbg.Print(r))
		} else {
			fmt.Print(dbg.PrintAll())
		}
	case "rules":
		fmt.Print(dbg.RuleStatus())
	case "trace":
		for _, ev := range dbg.Trace() {
			reg := ""
			if ev.Reg >= 0 {
				reg = " " + dbg.Design().Registers[ev.Reg].Name
			}
			fmt.Printf("  c%-8d %-10s %-20s%s ok=%v\n",
				ev.Cycle, ev.Kind, dbg.Design().Rules[ev.Rule].Name, reg, ev.OK)
		}
	case "reverse", "r":
		if err := dbg.ReverseStep(num(1, 1)); err != nil {
			return err
		}
		fmt.Printf("now at cycle %d\n", dbg.CycleCount())
	default:
		return fmt.Errorf("unknown command %q (try 'help')", cmd)
	}
	return nil
}

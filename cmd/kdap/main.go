// Command kdap is the Debug Adapter Protocol bridge and the one remote
// debugger front-end: it lets VS Code (or any DAP client) drive a ksimd
// simulation session like a paused program — conditional breakpoints,
// rule breakpoints, forward and reverse stepping, a stack of the rules
// that fired, register inspection and pokes in the Variables pane, and
// trace-store queries from the Debug Console.
//
// Usage:
//
//	kdap -url URL [-listen HOST:PORT] [-addr-file PATH]
//
// -url names the ksimd daemon (or fleet router — sessions route
// transparently) to debug against. By default kdap serves a single DAP
// session over stdio, the transport VS Code launches debug adapters with;
// -listen serves DAP over TCP instead, accepting any number of concurrent
// clients (use ":0" for an ephemeral port; the bound address is printed on
// stdout and, with -addr-file, written to a file for scripts).
//
// The client's launch request takes {"design": NAME} (a catalogue name or
// a .koika file path) and creates a fresh session that is deleted on
// disconnect; attach takes {"session": ID} and leaves the session running
// afterwards. Either way kdap enables trace recording when the daemon has
// a store, so evaluate can answer time-travel queries such as
// "first x.rd0() == 32'd1".
//
// A function breakpoint names a rule and arms the condition fired(rule).
// The daemon checks conditions between cycles, so it stops after the
// cycle in which the rule committed, not at rule entry as the local kdbg's
// "break rule" does; reverseContinue finds the previous such cycle with
// one "last" trace query over every breakpoint. The stack has one frame
// per rule that committed in the cycle that led to the current one, in
// schedule order ("<rule> @ cycle N"), or the single frame
// "<design> @ cycle N" when none did or the session is at cycle 0.
// setVariable on a register pokes it at its own width. Line breakpoints
// are refused: sessions serve no source listing.
package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"

	"cuttlego/internal/cli"
	"cuttlego/internal/dap"
	"cuttlego/internal/kclient"
)

// stdio glues stdin+stdout into the io.ReadWriter dap.Serve wants.
type stdio struct {
	io.Reader
	io.Writer
}

func main() {
	fs := cli.Flags("kdap")
	url := fs.String("url", "http://127.0.0.1:9090", "ksimd daemon or router to debug against")
	listen := fs.String("listen", "", "serve DAP over TCP on this address instead of stdio (use :0 for an ephemeral port)")
	addrFile := fs.String("addr-file", "", "with -listen: also write the bound address to this file")
	cli.Parse(fs, os.Args[1:])
	if fs.NArg() != 0 {
		cli.Usage("usage: kdap -url URL [-listen HOST:PORT] [-addr-file PATH]\n")
	}
	client := kclient.New(*url)

	if *listen == "" {
		if err := dap.Serve(stdio{os.Stdin, os.Stdout}, client); err != nil {
			cli.Fail("kdap", err)
		}
		return
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		cli.Fail("kdap", err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			cli.Fail("kdap", err)
		}
	}
	fmt.Printf("kdap listening on %s (backend %s)\n", bound, *url)

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			cli.Fail("kdap", err)
		}
		go func(conn net.Conn) {
			defer conn.Close()
			if err := dap.Serve(conn, client); err != nil {
				fmt.Fprintf(os.Stderr, "kdap: session: %v\n", err)
			}
		}(conn)
	}
}

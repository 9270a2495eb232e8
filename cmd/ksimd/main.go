// Command ksimd is the simulation-as-a-service daemon: it hosts concurrent
// simulation sessions behind a JSON HTTP API, with durable snapshots,
// transparent eviction/resurrection, remote debugging (through kdap, the
// DAP bridge), and recorded traces (indexed queries, diffs, VCD).
//
// Usage:
//
//	ksimd [-addr HOST:PORT] [-store DIR] [-max-sessions N] [-max-body BYTES]
//	      [-step-timeout D] [-max-step N] [-workers N] [-addr-file PATH]
//	      [-max-queue N] [-watchdog D] [-faults SPEC] [-fault-seed N]
//	      [-native-cache DIR] [-promote-after N]
//	ksimd -router BACKENDS [-addr HOST:PORT] [-addr-file PATH]
//	      [-health-interval D] [-store DIR]
//
// With -router, ksimd runs as a fleet gateway instead of a daemon: BACKENDS
// is a comma-separated list of backend base URLs (optionally "name=url"),
// and the gateway consistent-hash-routes session ids across them, forwards
// the JSON API transparently, health-checks every -health-interval, and
// re-homes sessions whose backend died (give the backends a shared -store
// so the survivor can resurrect them). POST /v1/sessions/{id}/migrate moves
// a session between backends live. Point the router's own -store at the
// fleet's shared store and it persists routing pins (fork children,
// migrated sessions) there, so a restarted router keeps routing them to
// their actual home instead of their hash position.
//
// The daemon prints its listening address on stdout once bound (an -addr of
// ":0" picks an ephemeral port; -addr-file additionally writes the address
// to a file for scripted startup). SIGINT/SIGTERM trigger a graceful
// shutdown: in-flight requests drain and, when -store is set, every durable
// session is checkpointed so a restarted daemon can resume it. At startup a
// -store directory is scanned for crash damage — orphaned temp files are
// removed and torn or corrupt checkpoints are quarantined — and the report
// is printed when anything was found.
//
// -native-cache enables the AOT execution tier: it roots the digest-keyed
// compile cache, allows sessions with engine "native", and — with
// -promote-after N — transparently promotes hot self-driving cuttlesim
// sessions onto compiled binaries once they pass N cycles (the compile runs
// off the stepping path; state transfers via snapshot behind a
// digest-equality gate, and a crashed binary demotes back in-process). On
// shutdown every simulator subprocess is reaped, so a retired daemon never
// leaves orphans.
//
// -max-queue and -watchdog tune the overload and runaway-step defenses
// (see server.Config). -faults arms deterministic fault injection for chaos
// testing: a comma-separated list of op:trigger:kind[:delay] rules, e.g.
// "fs.write:3:fail" (fail the third store write), "fs.rename:p0.05:tear"
// (tear 5% of renames), "engine.cycle:1000+500:panic" (panic every 500
// cycles from the 1000th). -fault-seed makes the probabilistic rules
// reproducible.
//
// Exit codes: 0 on clean shutdown, 1 on input errors (bad flags, unusable
// address or store), 2 on an internal toolchain error.
package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cuttlego/internal/cli"
	"cuttlego/internal/faultinj"
	"cuttlego/internal/server"
)

func main() {
	fs := cli.Flags("ksimd")
	var (
		addr     = fs.String("addr", "127.0.0.1:9090", "listen address (use :0 for an ephemeral port)")
		store    = fs.String("store", "", "durable snapshot directory (empty = no durability)")
		maxSess  = fs.Int("max-sessions", 64, "live session bound; excess evicts LRU durable sessions")
		maxBody  = fs.Int64("max-body", 1<<20, "request body limit in bytes")
		stepTO   = fs.Duration("step-timeout", 30*time.Second, "simulation budget per step request")
		maxStep  = fs.Uint64("max-step", 100_000_000, "cycle cap per step request")
		workers  = fs.Int("workers", 0, "concurrent simulation requests (0 = 2 per CPU)")
		addrFile = fs.String("addr-file", "", "also write the bound address to this file")
		maxQueue = fs.Int("max-queue", 0, "queued-request bound before shedding with 503 (0 = 4x workers)")
		watchdog = fs.Duration("watchdog", 0, "wall-clock bound per step request (0 = step-timeout + 30s)")
		faults   = fs.String("faults", "", "fault-injection rules op:trigger:kind[:delay], comma-separated (chaos testing)")
		faultSd  = fs.Int64("fault-seed", 1, "seed for probabilistic -faults rules")
		ncache   = fs.String("native-cache", "", "AOT compile-cache directory; enables the native execution tier (empty = disabled)")
		promote  = fs.Uint64("promote-after", 0, "promote hot cuttlesim sessions to the native tier past this cycle count (0 = never; needs -native-cache)")
		routerBk = fs.String("router", "", "run as a fleet gateway over these comma-separated backend URLs (optionally name=url)")
		healthIv = fs.Duration("health-interval", time.Second, "router backend health-probe interval")
	)
	cli.Parse(fs, os.Args[1:])
	if fs.NArg() != 0 {
		cli.Usage("usage: ksimd [flags]; run ksimd -h for the flag list\n")
	}
	if *routerBk != "" {
		runRouter(*routerBk, *addr, *addrFile, *store, *healthIv)
		return
	}

	var inj *faultinj.Injector
	if *faults != "" {
		rules, err := faultinj.ParseRules(*faults)
		if err != nil {
			cli.Fail("ksimd", fmt.Errorf("-faults: %w", err))
		}
		inj = faultinj.New(*faultSd, rules...)
	}

	srv, err := server.New(server.Config{
		StoreDir:       *store,
		MaxSessions:    *maxSess,
		MaxBody:        *maxBody,
		StepTimeout:    *stepTO,
		MaxStepCycles:  *maxStep,
		Workers:        *workers,
		MaxQueue:       *maxQueue,
		Watchdog:       *watchdog,
		Faults:         inj,
		NativeCacheDir: *ncache,
		PromoteAfter:   *promote,
	})
	if err != nil {
		cli.Fail("ksimd", err)
	}
	// A kill -9 can leave temp files and torn checkpoints behind; sweep them
	// before serving so resurrection never trips over crash debris.
	if *store != "" {
		rep, err := srv.RecoverStore()
		if err != nil {
			cli.Fail("ksimd", fmt.Errorf("store recovery: %w", err))
		}
		if !rep.Clean() {
			fmt.Printf("ksimd: store recovery: %s\n", rep)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		cli.Fail("ksimd", err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			cli.Fail("ksimd", err)
		}
	}
	fmt.Printf("ksimd listening on %s (%s)\n", bound, srv.Describe())

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		// WriteTimeout bounds how long a stalled client can hold a session
		// lock and a worker slot; it must outlast one request's simulation
		// budget. Streaming handlers extend their deadline per flush via
		// http.ResponseController while they are making progress.
		WriteTimeout: *stepTO + 30*time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("ksimd: %s, shutting down\n", sig)
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			cli.Fail("ksimd", err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "ksimd: shutdown: %v\n", err)
	}
	// Checkpoint every durable session so a restart resumes where we left off.
	if err := srv.Close(); err != nil {
		cli.Fail("ksimd", err)
	}
}

package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cuttlego/internal/cli"
	"cuttlego/internal/router"
)

// runRouter is ksimd's -router mode: a fleet gateway over N backend
// daemons. It shares the daemon's address/bind conventions (stdout banner,
// -addr-file, SIGINT/SIGTERM graceful shutdown) so scripts drive both the
// same way.
func runRouter(backends, addr, addrFile, store string, healthIv time.Duration) {
	rt, err := router.New(router.Config{
		Backends:       strings.Split(backends, ","),
		HealthInterval: healthIv,
		StoreDir:       store,
	})
	if err != nil {
		cli.Fail("ksimd", err)
	}
	rt.Start()
	defer rt.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		cli.Fail("ksimd", err)
	}
	bound := ln.Addr().String()
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound+"\n"), 0o644); err != nil {
			cli.Fail("ksimd", err)
		}
	}
	var names []string
	for _, b := range rt.Backends() {
		names = append(names, fmt.Sprintf("%s=%s", b.Name, b.URL))
	}
	fmt.Printf("ksimd router listening on %s (backends %s)\n", bound, strings.Join(names, " "))

	hs := &http.Server{
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		// No WriteTimeout: a trace/vcd response proxies through for as long
		// as the backend serves it; the backend's own write deadline bounds
		// a stalled client.
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("ksimd router: %s, shutting down\n", sig)
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			cli.Fail("ksimd", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "ksimd router: shutdown: %v\n", err)
	}
}

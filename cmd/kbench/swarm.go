package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cuttlego/internal/kclient"
	"cuttlego/internal/server"
)

// Swarm mode is the fleet smoke: an open-loop arrival process creates many
// concurrent sessions against a ksimd daemon or a ksimd -router fleet,
// steps each one repeatedly, then storms the fleet with copy-on-write forks
// and (against a router) one forced live migration. It fails on any
// StateDigest parity violation across forks or migrations and on any failed
// request beyond deliberate load shedding.

type swarmConfig struct {
	sessions int
	rate     float64 // session arrivals per second
	steps    int     // step RPCs per session
	cycles   uint64  // cycles per step RPC
	forks    int     // forks per session in the storm
	migrate  bool    // attempt one live migration (routers only)
	design   string  // self-driving catalogue design
}

// shedStatus reports whether err is the fleet refusing load (429/503) —
// expected under an open loop — rather than a real failure.
func shedStatus(err error) bool {
	var apiErr *kclient.APIError
	return errors.As(err, &apiErr) &&
		(apiErr.Status == http.StatusTooManyRequests || apiErr.Status == http.StatusServiceUnavailable)
}

func runSwarm(out io.Writer, url string, cfg swarmConfig) error {
	ctx := context.Background()
	c := kclient.NewWithOptions(url, kclient.Options{
		Retry:          kclient.RetryPolicy{MaxAttempts: 5, BaseDelay: 20 * time.Millisecond, MaxDelay: 2 * time.Second},
		RequestTimeout: 60 * time.Second,
	})
	if err := c.Health(ctx); err != nil {
		return fmt.Errorf("swarm: fleet at %s not healthy: %w", url, err)
	}
	start := time.Now()

	// Phase 1: open-loop session arrivals. A ticker fires at the arrival
	// rate and each arrival runs independently — slow sessions do not slow
	// the arrival process, which is what makes the loop "open".
	var (
		mu         sync.Mutex
		ids        []string
		checks     int // digest parity checks across forks and migrations
		mismatches int
		migrations int
		steps      atomic.Uint64
		errsN      atomic.Uint64
		shedN      atomic.Uint64
	)
	interval := time.Duration(float64(time.Second) / cfg.rate)
	if interval <= 0 {
		interval = time.Millisecond
	}
	var wg sync.WaitGroup
	tick := time.NewTicker(interval)
	for i := 0; i < cfg.sessions; i++ {
		<-tick.C
		wg.Add(1)
		go func() {
			defer wg.Done()
			info, err := c.Create(ctx, server.CreateRequest{Catalog: cfg.design})
			if err != nil {
				if shedStatus(err) {
					shedN.Add(1)
				} else {
					errsN.Add(1)
				}
				return
			}
			for k := 0; k < cfg.steps; k++ {
				if _, err := c.Step(ctx, info.ID, cfg.cycles); err != nil {
					if shedStatus(err) {
						shedN.Add(1)
					} else {
						errsN.Add(1)
					}
					continue
				}
				steps.Add(1)
			}
			mu.Lock()
			ids = append(ids, info.ID)
			mu.Unlock()
		}()
	}
	wg.Wait()
	tick.Stop()

	// Phase 2: fork storm. Capture each parent's digest first, then fork it
	// cfg.forks times; every fork must report the parent's exact digest and
	// cycle (the CoW overlay is supposed to be a perfect view of the base).
	// Forks are left unstepped so they stay lazy, except one per parent,
	// stepped once to prove materialization diverges cleanly.
	var forked atomic.Uint64
	for _, id := range ids {
		parent, err := c.Info(ctx, id)
		if err != nil {
			errsN.Add(1)
			continue
		}
		wg.Add(1)
		go func(parent server.SessionInfo) {
			defer wg.Done()
			for k := 0; k < cfg.forks; k++ {
				fk, err := c.Fork(ctx, parent.ID)
				if err != nil {
					if shedStatus(err) {
						shedN.Add(1)
					} else {
						errsN.Add(1)
					}
					continue
				}
				forked.Add(1)
				mu.Lock()
				checks++
				if fk.Digest != parent.Digest || fk.Cycle != parent.Cycle {
					mismatches++
					fmt.Fprintf(out, "swarm: DIGEST MISMATCH fork %s: %s@%d vs parent %s %s@%d\n",
						fk.ID, fk.Digest, fk.Cycle, parent.ID, parent.Digest, parent.Cycle)
				}
				mu.Unlock()
				if k == 0 {
					// Prove divergence: materialize exactly one fork per
					// parent and confirm it advances independently.
					if st, err := c.Step(ctx, fk.ID, 1); err == nil && st.Cycle != parent.Cycle+1 {
						mu.Lock()
						mismatches++
						mu.Unlock()
						fmt.Fprintf(out, "swarm: fork %s stepped to cycle %d, want %d\n", fk.ID, st.Cycle, parent.Cycle+1)
					}
				}
			}
		}(parent)
	}
	wg.Wait()

	// Phase 3: one forced live migration, when the target is a router.
	if cfg.migrate && len(ids) > 0 {
		pre, err := c.Info(ctx, ids[0])
		if err == nil {
			mig, err := c.Migrate(ctx, ids[0], "")
			var apiErr *kclient.APIError
			switch {
			case err == nil:
				migrations++
				checks++
				if mig.Digest != pre.Digest || mig.Cycle != pre.Cycle {
					mismatches++
					fmt.Fprintf(out, "swarm: DIGEST MISMATCH migration %s: %s@%d on %s vs %s@%d on %s\n",
						mig.ID, mig.Digest, mig.Cycle, mig.To, pre.Digest, pre.Cycle, mig.From)
				}
			case errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound:
				// A plain daemon has no migrate endpoint; not an error.
				fmt.Fprintf(out, "swarm: no migrate endpoint at %s (plain daemon?); skipping migration\n", url)
			default:
				errsN.Add(1)
				fmt.Fprintf(out, "swarm: migration failed: %v\n", err)
			}
		}
	}

	fmt.Fprintf(out, "swarm: %d sessions of %s against %s: %d steps x %d cycles, forks %d, migrations %d\n",
		len(ids), cfg.design, url, steps.Load(), cfg.cycles, forked.Load(), migrations)
	fmt.Fprintf(out, "  digest parity %d/%d ok; %d errors, %d shed; wall %.1fs\n",
		checks-mismatches, checks, errsN.Load(), shedN.Load(), time.Since(start).Seconds())
	if mismatches > 0 {
		return fmt.Errorf("swarm: %d digest parity violations", mismatches)
	}
	if n := errsN.Load(); n > 0 {
		return fmt.Errorf("swarm: %d requests failed (beyond %d shed)", n, shedN.Load())
	}
	return nil
}

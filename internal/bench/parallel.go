// The parallel batch runner: independent benchmark instances and
// scheduler-fuzz seeds execute concurrently on a worker pool, with results
// collected in index order so the report output is byte-identical to a
// sequential run. Every instance is freshly built inside its job (designs
// and testbenches carry per-instance state), so jobs share nothing.
package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"

	"cuttlego/internal/ast"
	"cuttlego/internal/engine"
	"cuttlego/internal/interp"
	"cuttlego/internal/sim"
	"cuttlego/internal/testkit"
)

// Workers normalizes a worker-count flag: n < 1 means one worker per
// available CPU (runtime.GOMAXPROCS), anything else is taken as given.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// RunParallel executes jobs 0..n-1 on a pool of the given size and returns
// the results in index order.
//
// Contract: workers < 1 defaults to one worker per available CPU
// (runtime.GOMAXPROCS); workers > n is clamped to n, so an
// over-provisioned pool never spawns idle goroutines. The result slice
// depends only on the jobs, never on scheduling; with workers == 1 the
// jobs run sequentially in order on the calling goroutine.
func RunParallel[T any](n, workers int, job func(i int) T) []T {
	out, _ := RunParallelCtx(context.Background(), n, workers, job)
	return out
}

// RunParallelCtx is RunParallel under a context: once ctx is cancelled no
// further jobs are dispatched (in-flight jobs finish; jobs wanting earlier
// cancellation must watch ctx themselves). It returns the results gathered
// so far — slots of undispatched jobs hold T's zero value — plus the set of
// job indices that actually ran, in ascending order. The worker-count
// normalization is RunParallel's: < 1 becomes GOMAXPROCS, > n is clamped
// to n.
func RunParallelCtx[T any](ctx context.Context, n, workers int, job func(i int) T) (out []T, ran []int) {
	out = make([]T, n)
	done := make([]bool, n)
	workers = Workers(workers)
	if workers == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			out[i] = job(i)
			done[i] = true
		}
	} else {
		if workers > n {
			workers = n
		}
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					out[i] = job(i)
					done[i] = true
				}
			}()
		}
	dispatch:
		for i := 0; i < n; i++ {
			select {
			case next <- i:
			case <-ctx.Done():
				break dispatch
			}
		}
		close(next)
		wg.Wait()
	}
	for i, ok := range done {
		if ok {
			ran = append(ran, i)
		}
	}
	return out, ran
}

// FuzzOne runs one randomized design (testkit.Random seed) across the
// in-process engine matrix (engine.InProcess, the one kdiff checks) for n
// cycles in lockstep, returning the first divergence from the reference
// interpreter (or nil).
func FuzzOne(seed int64, cycles uint64) error {
	build := func() *ast.Design { return testkit.Random(seed).MustCheck() }
	ref, err := interp.New(build())
	if err != nil {
		return err
	}
	type pair struct {
		name string
		eng  sim.Engine
	}
	var others []pair
	defer func() {
		for _, p := range others {
			closeEngine(p.eng)
		}
	}()
	for _, spec := range engine.InProcess() {
		e, err := spec.Build(build(), nil, nil, engine.Instrument{})
		if err != nil {
			return fmt.Errorf("seed %d: %s: %w", seed, spec, err)
		}
		others = append(others, pair{spec.String(), e})
	}
	d := ref.Design()
	for c := uint64(0); c < cycles; c++ {
		ref.Cycle()
		want := sim.StateOf(ref)
		for _, p := range others {
			p.eng.Cycle()
			got := sim.StateOf(p.eng)
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("seed %d cycle %d: %s reg %s = %v, interp has %v",
						seed, c, p.name, d.Registers[i].Name, got[i], want[i])
				}
			}
			for _, r := range d.Rules {
				if p.eng.RuleFired(r.Name) != ref.RuleFired(r.Name) {
					return fmt.Errorf("seed %d cycle %d: %s rule %s fired=%v, interp disagrees",
						seed, c, p.name, r.Name, p.eng.RuleFired(r.Name))
				}
			}
		}
	}
	return nil
}

// Fuzz cross-checks count random designs (seeds base..base+count-1)
// against the full engine matrix, fanning the seeds out over the worker
// pool. Output is deterministic regardless of worker count.
func Fuzz(w io.Writer, base int64, count int, cycles uint64, workers int) error {
	return FuzzCtx(context.Background(), w, base, count, cycles, workers)
}

// FuzzCtx is Fuzz under a context: cancellation stops dispatching further
// seeds, the seeds already checked are reported, and the cancellation cause
// is returned so the run still ends with a truthful verdict.
func FuzzCtx(ctx context.Context, w io.Writer, base int64, count int, cycles uint64, workers int) error {
	fmt.Fprintf(w, "Scheduler fuzz: %d random designs x %d engines, %d cycles each\n\n",
		count, len(engine.InProcess())+1, cycles)
	errs, ran := RunParallelCtx(ctx, count, workers, func(i int) error {
		return FuzzOne(base+int64(i), cycles)
	})
	failed := 0
	for _, i := range ran {
		verdict := "OK"
		if errs[i] != nil {
			verdict = errs[i].Error()
			failed++
		}
		fmt.Fprintf(w, "seed %-6d %s\n", base+int64(i), verdict)
	}
	if failed > 0 {
		return fmt.Errorf("fuzz: %d of %d seeds diverged", failed, len(ran))
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("fuzz stopped after %d of %d seeds: %w", len(ran), count, err)
	}
	fmt.Fprintf(w, "\nall %d seeds agree with the reference interpreter\n", count)
	return nil
}

// The parallel batch runner: independent benchmark instances and
// random-design seeds execute concurrently on a worker pool, with results
// collected in index order so the report output is byte-identical to a
// sequential run. Every instance is freshly built inside its job (designs
// and testbenches carry per-instance state), so jobs share nothing.
package bench

import (
	"fmt"
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
	out := make([]T, n)
	workers = min(Workers(workers), n)
	if workers <= 1 {
		for i := range out {
			out[i] = job(i)
		}
		return out
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = job(i)
			}
		}()
	}
	for i := range out {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
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

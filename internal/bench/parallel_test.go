package bench_test

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cuttlego/internal/bench"
)

func TestRunParallelOrderAndCoverage(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		got := bench.RunParallel(37, workers, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
	if got := bench.RunParallel(0, 4, func(i int) int { return i }); len(got) != 0 {
		t.Errorf("n=0 returned %d results", len(got))
	}
}

// An over-provisioned pool (workers far beyond the job count) must clamp
// to n workers: every job still runs exactly once, results stay in index
// order, and no goroutine waits on a job that never comes. The job counts
// concurrent entries to prove no more than n ever run at once.
func TestRunParallelOverProvisionedPool(t *testing.T) {
	const n = 3
	var mu sync.Mutex
	var live, peak, calls int
	got := bench.RunParallel(n, 64, func(i int) int {
		mu.Lock()
		live++
		calls++
		if live > peak {
			peak = live
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		live--
		mu.Unlock()
		return i + 100
	})
	if calls != n {
		t.Fatalf("jobs ran %d times, want %d", calls, n)
	}
	if peak > n {
		t.Fatalf("%d jobs in flight at once with only %d jobs", peak, n)
	}
	for i, v := range got {
		if v != i+100 {
			t.Fatalf("result[%d] = %d, want %d", i, v, i+100)
		}
	}

	// Defaulting: workers < 1 must behave like a GOMAXPROCS-wide pool and
	// still complete every job.
	if got := bench.RunParallel(5, 0, func(i int) int { return -i }); len(got) != 5 || got[4] != -4 {
		t.Fatalf("workers=0 run returned %v", got)
	}
	if w := bench.Workers(0); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
	if w := bench.Workers(-3); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
}

// The acceptance criterion for -parallel: the conformance table, the one
// report that fans out, is byte-identical to a sequential run.
func TestParallelReportsDeterministic(t *testing.T) {
	var seq, par strings.Builder
	if err := bench.Conformance(&seq, 40, 1); err != nil {
		t.Fatal(err)
	}
	if err := bench.Conformance(&par, 40, 8); err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Errorf("Conformance output differs between 1 and 8 workers:\n--- seq\n%s\n--- par\n%s", seq.String(), par.String())
	}
}

func TestFuzzCatchesDivergence(t *testing.T) {
	// A healthy engine matrix: every seed must agree (this is the
	// randomized-design equivalence sweep the optimizer passes ride on).
	if err := bench.FuzzOne(4242, 48); err != nil {
		t.Fatal(err)
	}
}

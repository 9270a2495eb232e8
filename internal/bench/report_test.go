package bench

import (
	"strings"
	"sync/atomic"
	"testing"
)

// TestConformanceFailsOnDivergence: a diverged cell fails the run after
// the whole table is written, and the error names every diverged (design,
// engine) cell. The drifting benchmark seeds each instance differently, so
// no engine can agree with the interpreter's instance.
func TestConformanceFailsOnDivergence(t *testing.T) {
	var seed atomic.Uint64
	drift := Benchmark{Name: "drift", New: func() Instance {
		return Instance{Design: CollatzBench(27 + seed.Add(1)).MustCheck()}
	}}
	collatz, _ := Lookup("collatz")
	var sb strings.Builder
	err := conformance(&sb, []Benchmark{collatz, drift}, 40, 2)
	if err == nil {
		t.Fatalf("conformance passed over a diverging design:\n%s", sb.String())
	}
	if !strings.Contains(err.Error(), "drift/cuttlesim(static,closure)") ||
		!strings.Contains(err.Error(), "drift/rtlsim(koika,fused,opt)") ||
		strings.Contains(err.Error(), "collatz/") {
		t.Errorf("error does not name exactly the diverged cells: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, "drift") || strings.Contains(last, "OK") {
		t.Errorf("table not fully rendered before the error; last row %q", last)
	}
	if !strings.Contains(sb.String(), "collatz") || strings.Contains(lines[2], "DIVERGED") {
		t.Errorf("collatz row missing or diverged:\n%s", sb.String())
	}
}

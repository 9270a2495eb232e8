package main

import (
	"path/filepath"
	"strings"
	"testing"

	"cuttlego/internal/diag"
	"time"
)

func TestRunEngines(t *testing.T) {
	for _, engine := range []string{"cuttlesim(static,closure)", "interp", "rtlsim(koika,switch)"} {
		if err := run("collatz", engine, 50, 0, 0, false, false, "", true); err != nil {
			t.Errorf("engine %s: %v", engine, err)
		}
	}
	if err := run("collatz", "cuttlesim(naive,bytecode)", 50, 0, 0, false, false, "", false); err != nil {
		t.Errorf("bytecode backend: %v", err)
	}
}

func TestRunInstrumented(t *testing.T) {
	if err := run("collatz", "cuttlesim(static,closure)", 50, 0, 0, true, true, "", false); err != nil {
		t.Errorf("coverage+profile: %v", err)
	}
	vcdPath := filepath.Join(t.TempDir(), "out.vcd")
	if err := run("collatz", "cuttlesim(static,closure)", 20, 0, 0, false, false, vcdPath, false); err != nil {
		t.Errorf("vcd: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("collatz", "warp-drive", 1, 0, 0, false, false, "", false); err == nil ||
		!strings.Contains(err.Error(), "unknown engine") {
		t.Errorf("err = %v", err)
	}
	if err := run("collatz", "interp", 1, 0, 0, true, false, "", false); err == nil ||
		!strings.Contains(err.Error(), "requires the cuttlesim engine") {
		t.Errorf("err = %v", err)
	}
}

// TestRunTimeout is the cycle-budget acceptance check: an effectively
// unbounded simulation must terminate cleanly under -timeout, report how
// far it got, and map to exit code 1 rather than hanging or crashing.
func TestRunTimeout(t *testing.T) {
	err := run("collatz", "cuttlesim(static,closure)", 1<<62, time.Millisecond, 0, false, false, "", false)
	if err == nil {
		t.Fatal("a 2^62-cycle run finished within 1ms")
	}
	if !strings.Contains(err.Error(), "simulation stopped after") {
		t.Fatalf("unexpected error: %v", err)
	}
	if code := diag.ExitCode(err); code != diag.ExitInput {
		t.Fatalf("exit code %d, want %d: %v", code, diag.ExitInput, err)
	}
}

// TestRunRejectsBadEngineNames: each spelling of a configuration that does
// not exist — an unknown cuttlesim backend, a cuttlesim backend on rtlsim,
// an out-of-range level — is an input error (exit 1) that lists the valid
// names, not a silent fallback or a crash.
func TestRunRejectsBadEngineNames(t *testing.T) {
	for _, name := range []string{"cuttlesim(static,foo)", "rtlsim(koika,bytecode)", "cuttlesim(-1,closure)"} {
		err := run("collatz", name, 10, 0, 0, false, false, "", false)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if code := diag.ExitCode(err); code != diag.ExitInput {
			t.Errorf("%s: exit code %d, want %d: %v", name, code, diag.ExitInput, err)
		}
		if !strings.Contains(err.Error(), "engine names: cuttlesim(<level>,<backend>)") {
			t.Errorf("%s: error does not list the valid names: %v", name, err)
		}
	}
}

package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"cuttlego/internal/difftest"
)

// TestMain lets a test re-run this binary as kdiff itself: with
// KDIFF_TEST_ARGS set, main runs on those arguments and its exit code is
// the process's.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("KDIFF_TEST_ARGS"); ok {
		os.Args = append([]string{"kdiff"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRetiredParallelGroupRefused: the parallel group named the retired
// intra-design pools; asking for it is an input error that lists the
// groups that remain.
func TestRetiredParallelGroupRefused(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "KDIFF_TEST_ARGS=-engines parallel -count 1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("kdiff -engines parallel: %v, want exit status 1\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "groups: cuttlesim, rtlsim, all") {
		t.Errorf("stderr does not list the groups:\n%s", stderr.String())
	}
}

func TestParseChecks(t *testing.T) {
	got, err := parseChecks("p_state==1, c0_ops_done>=1,x!=0xff")
	if err != nil {
		t.Fatal(err)
	}
	want := []difftest.Check{
		{Reg: "p_state", Op: "==", Val: 1},
		{Reg: "c0_ops_done", Op: ">=", Val: 1},
		{Reg: "x", Op: "!=", Val: 0xff},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("check %d: parsed %v, want %v", i, got[i], want[i])
		}
	}
	if checks, err := parseChecks(""); err != nil || checks != nil {
		t.Errorf("empty list parsed to %v, %v", checks, err)
	}
	for _, bad := range []string{"p_state=1", "p_state", "x==notanumber", "x<=3"} {
		if _, err := parseChecks(bad); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}

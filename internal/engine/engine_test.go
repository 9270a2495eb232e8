package engine_test

import (
	"strings"
	"testing"

	"cuttlego/internal/engine"
	"cuttlego/internal/interp"
	"cuttlego/internal/sim"
	"cuttlego/internal/testkit"
)

// benchNames is every distinct engine name in BENCH_1.json–BENCH_4.json
// apart from BENCH_3's retired pooled engines: the trajectory stays
// comparable only while each one still parses and prints back
// byte-identical.
var benchNames = []string{
	"cuttlesim(static,closure)", "cuttlesim(static,bytecode)",
	"cuttlesim(activity,closure)", "cuttlesim(activity,bytecode)",
	"rtlsim(koika,closure)", "rtlsim(koika,switch)", "rtlsim(koika,fused,opt)",
	"native",
}

func TestBenchNamesRoundTrip(t *testing.T) {
	for _, name := range benchNames {
		s, err := engine.Parse(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if s.String() != name {
			t.Errorf("Parse(%q).String() = %q", name, s)
		}
	}
}

func TestGroupsRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for _, g := range []string{"cuttlesim", "rtlsim", "all"} {
		specs, err := engine.Group(g)
		if err != nil || len(specs) == 0 {
			t.Fatalf("group %s: %v, %d engines", g, err, len(specs))
		}
		for _, s := range specs {
			back, err := engine.Parse(s.String())
			if err != nil || back != s {
				t.Errorf("group %s: %+v prints %s, which parses to %+v, %v", g, s, s, back, err)
			}
			if g != "all" && seen[s.String()] {
				t.Errorf("%s listed in two groups", s)
			}
			seen[s.String()] = true
		}
	}
	all, _ := engine.Group("all")
	if in := engine.InProcess(); len(all) != len(in)+1 || all[len(all)-1].Kind != "native" {
		t.Errorf("all = %d engines, want InProcess (%d) plus native", len(all), len(in))
	}
	if single, err := engine.Group("interp"); err != nil || len(single) != 1 || single[0].Kind != "interp" {
		t.Errorf("Group(interp) = %v, %v", single, err)
	}
}

// TestParseRejects: every other spelling fails, and the error lists the
// valid names.
func TestParseRejects(t *testing.T) {
	for _, name := range []string{
		"", "verilator", "cuttlesim", "interp()", "native(w2)",
		"cuttlesim(static)", "cuttlesim(static,closure", "cuttlesim(static,closure,opt)",
		"cuttlesim(ludicrous,closure)", "cuttlesim(-1,closure)", "cuttlesim(static,foo)",
		"rtlsim(koika,bytecode)", "rtlsim(static,fused)", "rtlsim(koika,fused,opt,opt)",
		"rtlsim(koika,fused,fast)", "interp-par(w2)", "Cuttlesim(static,closure)", "cuttlesim( static,closure)",
		// The retired intra-design pools.
		"cuttlesim-par(closure,w2)", "cuttlesim-par(activity,closure,w4)", "rtlsim-par(koika,opt,w4)",
	} {
		_, err := engine.Parse(name)
		if err == nil {
			t.Errorf("Parse(%q) accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), engine.Usage()) {
			t.Errorf("Parse(%q) error does not list the valid names: %v", name, err)
		}
	}
}

func TestValidateRejectsStrayFields(t *testing.T) {
	for _, s := range []engine.Spec{
		{Kind: "interp", Backend: "closure"},
		{Kind: "native", Optimize: true},
		{Kind: "cuttlesim", Level: "static", Backend: "closure", Optimize: true},
		{Kind: "rtlsim", Level: "static", Style: "koika", Backend: "fused"},
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", s)
		}
	}
}

// TestBuildMatchesInterp builds every in-process engine over a zoo design
// and checks its state against the reference interpreter after a short
// run; a combination the engine constructor refuses surfaces its error.
func TestBuildMatchesInterp(t *testing.T) {
	entry := testkit.Zoo()[0]
	ref, err := interp.New(entry.Build().MustCheck())
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(ref, sim.NopBench{}, 40)
	want := sim.StateDigest(ref)
	for _, s := range engine.InProcess() {
		e, err := s.Build(entry.Build().MustCheck(), nil, nil, engine.Instrument{Profile: true})
		if err != nil {
			t.Errorf("%s: %v", s, err)
			continue
		}
		sim.Run(e, sim.NopBench{}, 40)
		if got := sim.StateDigest(e); got != want {
			t.Errorf("%s: digest %x, interp %x", s, got, want)
		}
	}
	if _, err := engine.MustParse("native").Build(entry.Build().MustCheck(), nil, nil, engine.Instrument{}); err == nil {
		t.Error("native built without a compile cache")
	}
}

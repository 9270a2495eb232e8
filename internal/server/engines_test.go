package server

import (
	"testing"

	"cuttlego/internal/engine"
)

// acceptedBefore is the engine-field validation ksimd applied before the
// engine registry existed, kept verbatim as the compatibility oracle: every
// combination it accepted must still create a session, and every one it
// rejected must still be refused.
func acceptedBefore(c EngineConfig) bool {
	if c.Workers < 0 {
		return false
	}
	levels := map[string]int{"naive": 0, "split-sets": 1, "accumulate": 2, "reset-on-fail": 3,
		"merge-data": 4, "no-boc": 5, "static": 6, "activity": 7}
	switch c.Engine {
	case "", "cuttlesim":
		level, ok := levels[c.Level]
		if c.Level == "" {
			level, ok = levels["static"], true
		}
		if !ok || (c.Workers > 1 && level < levels["static"]) {
			return false
		}
		return c.Backend == "" || c.Backend == "closure" || c.Backend == "bytecode"
	case "interp", "native":
		return c.Level == "" && c.Backend == "" && c.Workers <= 1
	case "rtlsim":
		if c.Level != "" {
			return false
		}
		switch c.Backend {
		case "", "fused":
			return true
		case "switch", "closure":
			return c.Workers <= 1
		}
	}
	return false
}

// TestEngineConfigCrossProduct walks every {engine, level, backend,
// optimize, workers} combination over the known values plus an unknown one
// per field. Accepted combinations create a session through the real
// create path and carry exactly one registry name, which parses back to
// the same spec; rejected ones fail to create. Since the intra-design pools
// are retired, a width >= 0 no longer matters: a combination is accepted
// exactly when acceptedBefore accepts it at width 0.
func TestEngineConfigCrossProduct(t *testing.T) {
	engines := []string{"", "cuttlesim", "rtlsim", "interp", "native", "verilator"}
	levels := []string{"", "naive", "split-sets", "accumulate", "reset-on-fail", "merge-data",
		"no-boc", "static", "activity", "ludicrous"}
	backends := []string{"", "closure", "bytecode", "switch", "fused", "warp"}
	accepted := 0
	for _, e := range engines {
		for _, l := range levels {
			for _, b := range backends {
				for _, opt := range []bool{false, true} {
					for _, w := range []int{-1, 0, 1, 2, 4} {
						c := EngineConfig{Engine: e, Level: l, Backend: b, Optimize: opt, Workers: w}
						seq := c
						seq.Workers = 0
						want := c.Workers >= 0 && acceptedBefore(seq)
						spec, err := c.spec()
						if err == nil && spec.Kind != "native" {
							var s *session
							s, err = newSession("x", CreateRequest{Catalog: "collatz", Engine: e, Level: l,
								Backend: b, Optimize: opt, Workers: w}, sessionEnv{})
							if err == nil {
								s.discard()
							}
						}
						if got := err == nil; got != want {
							t.Errorf("%+v: accepted=%v, want %v (err %v)", c, got, want, err)
							continue
						}
						if !want {
							continue
						}
						accepted++
						back, perr := engine.Parse(spec.String())
						if perr != nil || back != spec {
							t.Errorf("%+v: name %s does not parse back to %+v: %+v, %v", c, spec, spec, back, perr)
						}
						if again, _ := configOf(spec).spec(); again != spec {
							t.Errorf("%+v: persisted form %+v re-resolves to %s, want %s", c, configOf(spec), again, spec)
						}
					}
				}
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no combination accepted")
	}
}

// TestEngineConfigNames pins the name each wire form maps to.
func TestEngineConfigNames(t *testing.T) {
	for _, tc := range []struct {
		c    EngineConfig
		want string
	}{
		{EngineConfig{}, "cuttlesim(static,closure)"},
		{EngineConfig{Engine: "cuttlesim", Level: "naive", Backend: "bytecode"}, "cuttlesim(naive,bytecode)"},
		{EngineConfig{Workers: 1}, "cuttlesim(static,closure)"},
		{EngineConfig{Backend: "bytecode", Workers: 4}, "cuttlesim(static,bytecode)"},
		{EngineConfig{Level: "activity", Workers: 2}, "cuttlesim(activity,closure)"},
		{EngineConfig{Engine: "rtlsim"}, "rtlsim(koika,fused)"},
		{EngineConfig{Engine: "rtlsim", Backend: "switch", Optimize: true}, "rtlsim(koika,switch,opt)"},
		{EngineConfig{Engine: "rtlsim", Optimize: true, Workers: 4}, "rtlsim(koika,fused,opt)"},
		{EngineConfig{Engine: "interp", Optimize: true}, "interp"},
		{EngineConfig{Engine: "native"}, "native"},
		{EngineConfig{Engine: "native", Workers: 2}, "native"},
	} {
		s, err := tc.c.spec()
		if err != nil || s.String() != tc.want {
			t.Errorf("%+v -> %s, %v; want %s", tc.c, s, err, tc.want)
		}
	}
	if _, err := (EngineConfig{Workers: -1}).spec(); err == nil {
		t.Error("negative workers accepted")
	}
}

package server

import (
	"fmt"

	"cuttlego/internal/bench"
	"cuttlego/internal/engine"
	"cuttlego/internal/native"
	"cuttlego/internal/sim"
)

// EngineConfig is the persisted engine selection of a session: strings, so
// it survives JSON meta files unchanged and re-resolves after a restart.
type EngineConfig struct {
	Engine   string `json:"engine"`
	Level    string `json:"level,omitempty"`
	Backend  string `json:"backend,omitempty"`
	Optimize bool   `json:"optimize,omitempty"`
	// Workers is kept so meta files that name a retired intra-design pool
	// width still load; any value >= 0 builds the sequential engine.
	Workers int `json:"workers,omitempty"`
}

// spec maps the wire fields onto the engine registry. Empty fields take
// ksimd's defaults (cuttlesim at the static level on closures; rtlsim on
// the fused backend over the Kôika netlist), Optimize only means something
// to rtlsim, and Workers is checked but otherwise ignored.
func (c EngineConfig) spec() (engine.Spec, error) {
	or := func(v, def string) string {
		if v == "" {
			return def
		}
		return v
	}
	if c.Workers < 0 {
		return engine.Spec{}, fmt.Errorf("workers must be >= 0, got %d", c.Workers)
	}
	s := engine.Spec{Kind: c.Engine, Level: c.Level, Backend: c.Backend}
	switch c.Engine {
	case "", "cuttlesim":
		s.Kind, s.Level, s.Backend = "cuttlesim", or(c.Level, "static"), or(c.Backend, "closure")
	case "rtlsim":
		s.Style, s.Backend, s.Optimize = "koika", or(c.Backend, "fused"), c.Optimize
	}
	return s, s.Validate()
}

// configOf is spec's inverse: the normalized fields a session persists.
func configOf(s engine.Spec) EngineConfig {
	return EngineConfig{Engine: s.Kind, Level: s.Level, Backend: s.Backend, Optimize: s.Optimize}
}

// build instantiates the engine over a fresh design instance. Cuttlesim
// engines are always built with profiling on: the daemon's rule-profile
// endpoint is part of the remote debugging surface and the counters cost
// almost nothing. ncache is the daemon's AOT compile cache; only the
// "native" engine needs it.
func build(s engine.Spec, inst bench.Instance, ncache *native.Cache) (sim.Engine, error) {
	if s.Kind == "native" && ncache == nil {
		return nil, fmt.Errorf("the native tier is disabled on this daemon (start it with -native-cache)")
	}
	return s.Build(inst.Design, inst.Native, ncache, engine.Instrument{Profile: true})
}

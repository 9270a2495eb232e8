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
	// Workers > 1 selects the parallel engine at that pool width: conflict-
	// free rule groups for cuttlesim, BSP-sharded levels for rtlsim.
	Workers int `json:"workers,omitempty"`
}

// spec maps the wire fields onto the engine registry. Empty fields take
// ksimd's defaults (cuttlesim at the static level on closures; rtlsim on
// the fused backend over the Kôika netlist), a pool width of 1 is the
// sequential engine, and Optimize only means something to rtlsim.
func (c EngineConfig) spec() (engine.Spec, error) {
	or := func(v, def string) string {
		if v == "" {
			return def
		}
		return v
	}
	s := engine.Spec{Kind: c.Engine, Level: c.Level, Backend: c.Backend, Workers: c.Workers}
	switch c.Engine {
	case "", "cuttlesim":
		s.Kind, s.Level, s.Backend = "cuttlesim", or(c.Level, "static"), or(c.Backend, "closure")
	case "rtlsim":
		s.Style, s.Backend, s.Optimize = "koika", or(c.Backend, "fused"), c.Optimize
	}
	if s.Workers == 1 {
		s.Workers = 0
	}
	return s, s.Validate()
}

// configOf is spec's inverse: the normalized fields a session persists.
func configOf(s engine.Spec) EngineConfig {
	return EngineConfig{Engine: s.Kind, Level: s.Level, Backend: s.Backend, Optimize: s.Optimize, Workers: s.Workers}
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

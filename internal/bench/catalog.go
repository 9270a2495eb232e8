package bench

import (
	"fmt"
	"os"

	"cuttlego/internal/cache"
	"cuttlego/internal/lang"
)

// Extras returns demonstration designs that are not Table 1 rows but are
// useful from the command-line tools (the MSI coherence system in both its
// healthy and deliberately broken forms).
func Extras() []Benchmark {
	return []Benchmark{
		{
			Name:        "msi",
			Description: "2-core MSI cache coherence (child caches + parent engine)",
			Workload:    "deterministic per-core load/store generators",
			New: func() Instance {
				sys := cache.Build(cache.Config{})
				sys.Design.MustCheck()
				return Instance{Design: sys.Design}
			},
		},
		{
			Name:        "msi-buggy",
			Description: "MSI system with the Case Study 1 dropped-ack deadlock",
			Workload:    "deterministic per-core load/store generators",
			New: func() Instance {
				sys := cache.Build(cache.Config{BugDroppedAck: true})
				sys.Design.MustCheck()
				return Instance{Design: sys.Design}
			},
		},
		{
			Name:        "fft64",
			Description: "64-point FFT butterfly network (wide netlist levels)",
			Workload:    "input feedback rule perturbing the butterfly inputs",
			New: func() Instance {
				return Instance{Design: FFTBench(64).MustCheck()}
			},
		},
		{
			Name:        "pstress",
			Description: "8 independent heavy rules (deep mix chains; edgeless conflict graph)",
			Workload:    "self-contained per-rule mixing, no testbench",
			New: func() Instance {
				return Instance{Design: ParallelStress(8, 96).MustCheck()}
			},
		},
	}
}

// Lookup finds a named design among the Table 1 suite and the extras.
func Lookup(name string) (Benchmark, bool) {
	for _, bm := range append(Suite(), Extras()...) {
		if bm.Name == name {
			return bm, true
		}
	}
	return Benchmark{}, false
}

// Names lists every catalogued design.
func Names() []string {
	var out []string
	for _, bm := range append(Suite(), Extras()...) {
		out = append(out, bm.Name)
	}
	return out
}

// LoadOpts configures Load's textual frontend.
type LoadOpts struct {
	// MaxErrors caps parser diagnostics (0 = frontend default, <0 =
	// unlimited); the CLIs expose it as -maxerrors.
	MaxErrors int
}

// Load resolves a design reference for the command-line tools: a catalogue
// name, or a path to a .koika source file parsed by the textual frontend
// (external functions must not be required, since no host bindings exist).
func Load(ref string) (Instance, error) {
	return LoadWith(ref, LoadOpts{})
}

// LoadWith is Load with frontend options.
func LoadWith(ref string, opts LoadOpts) (Instance, error) {
	if bm, ok := Lookup(ref); ok {
		return bm.New(), nil
	}
	src, err := os.ReadFile(ref)
	if err != nil {
		return Instance{}, fmt.Errorf("%q is neither a catalogued design (%v) nor a readable file: %w",
			ref, Names(), err)
	}
	d, err := lang.ParseOpts(string(src), lang.Options{MaxErrors: opts.MaxErrors})
	if err != nil {
		return Instance{}, err
	}
	return Instance{Design: d}, nil
}

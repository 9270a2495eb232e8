// Package engine is the one place an engine configuration is named,
// validated and built. ksimd, kdiff, kbench and the cuttlesim CLI all pick
// engines by name through Parse and build them through Spec.Build, so a
// name in one tool's output, or in a BENCH_*.json trajectory, means the
// same engine in every other tool. The grammar:
//
//	cuttlesim(<level>,<backend>)
//	rtlsim(<style>,<backend>[,opt])  opt: netopt the netlist first
//	interp
//	native
//
// Each configuration has exactly one name: Parse rejects every other
// spelling and String prints it back byte-identical. Slot values are the
// engine packages' own enum names. Combination rules (a debug hook needs
// the closure backend) live in cuttlesim.New and rtlsim.New; Build
// surfaces their errors.
package engine

import (
	"fmt"
	"strings"

	"cuttlego/internal/ast"
	"cuttlego/internal/circuit"
	"cuttlego/internal/cuttlesim"
	"cuttlego/internal/gomodel"
	"cuttlego/internal/interp"
	"cuttlego/internal/netopt"
	"cuttlego/internal/rtlsim"
	"cuttlego/internal/sim"
)

// Spec is one engine configuration. Fields an engine does not use must
// stay zero.
type Spec struct {
	Kind     string // "cuttlesim", "rtlsim", "interp" or "native"
	Level    string // cuttlesim.Level name
	Backend  string // cuttlesim.Backend or rtlsim.Backend name
	Style    string // rtlsim netlist style: circuit.Style name
	Optimize bool   // rtlsim: run netopt over the netlist
}

// Instrument carries the build options that are not part of an engine's
// name: they change what an engine records, not what it computes.
type Instrument struct {
	Profile, Coverage bool           // cuttlesim per-rule and per-node counters
	Hook              cuttlesim.Hook // cuttlesim execution events (the debugger)
}

var (
	cuttlesimBackends = []cuttlesim.Backend{cuttlesim.Closure, cuttlesim.Bytecode}
	rtlsimBackends    = []rtlsim.Backend{rtlsim.Switch, rtlsim.Closure, rtlsim.Fused}
	styles            = []circuit.Style{circuit.StyleKoika, circuit.StyleBluespec}
)

// lookup resolves a slot value to the enum whose String it is.
func lookup[T fmt.Stringer](name string, all []T) (T, bool) {
	for _, v := range all {
		if v.String() == name {
			return v, true
		}
	}
	var zero T
	return zero, false
}

func join[T fmt.Stringer](all []T) string {
	out := make([]string, len(all))
	for i, v := range all {
		out[i] = v.String()
	}
	return strings.Join(out, "|")
}

// Usage lists the grammar and the values of each slot; every Parse error
// ends with it.
func Usage() string {
	return "engine names: cuttlesim(<level>,<backend>), rtlsim(<style>,<backend>[,opt]), interp, native\n" +
		"  cuttlesim level: " + join(cuttlesim.Levels()) + "\n" +
		"  cuttlesim backend: " + join(cuttlesimBackends) + "\n" +
		"  rtlsim style: " + join(styles) + "\n" +
		"  rtlsim backend: " + join(rtlsimBackends)
}

// Parse resolves a canonical engine name.
func Parse(name string) (Spec, error) {
	s, err := parse(name)
	if err == nil {
		err = s.Validate()
	}
	if err == nil && s.String() != name {
		err = fmt.Errorf("not the canonical spelling; write %s", s)
	}
	if err != nil {
		return Spec{}, fmt.Errorf("engine %q: %w\n%s", name, err, Usage())
	}
	return s, nil
}

// MustParse is Parse for names known to be valid (literals in code).
func MustParse(name string) Spec {
	s, err := Parse(name)
	if err != nil {
		panic(err)
	}
	return s
}

// parse splits a name into fields; Validate and the canonical-spelling
// check in Parse catch everything it lets through.
func parse(name string) (Spec, error) {
	head, rest, hasArgs := strings.Cut(name, "(")
	inner, closed := strings.CutSuffix(rest, ")")
	if hasArgs != closed {
		return Spec{}, fmt.Errorf("unbalanced parentheses")
	}
	var args []string
	if hasArgs {
		args = strings.Split(inner, ",")
	}
	s := Spec{Kind: head}
	if n := len(args); s.Kind == "rtlsim" && n > 0 && args[n-1] == "opt" {
		s.Optimize, args = true, args[:n-1]
	}
	switch {
	case s.Kind == "cuttlesim" && len(args) == 2:
		s.Level, s.Backend = args[0], args[1]
	case s.Kind == "rtlsim" && len(args) == 2:
		s.Style, s.Backend = args[0], args[1]
	case (s.Kind == "interp" || s.Kind == "native") && !hasArgs:
	case s.Kind == "cuttlesim" || s.Kind == "rtlsim" || s.Kind == "interp" || s.Kind == "native":
		return Spec{}, fmt.Errorf("wrong arguments for %s", head)
	default:
		return Spec{}, fmt.Errorf("unknown engine %q", head)
	}
	return s, nil
}

// String is the engine's canonical name.
func (s Spec) String() string {
	opt := ""
	if s.Optimize {
		opt = ",opt"
	}
	switch s.Kind {
	case "cuttlesim":
		return fmt.Sprintf("cuttlesim(%s,%s)", s.Level, s.Backend)
	case "rtlsim":
		return fmt.Sprintf("rtlsim(%s,%s%s)", s.Style, s.Backend, opt)
	}
	return s.Kind
}

// Validate checks every field against the values its engine knows.
func (s Spec) Validate() error {
	bad := func(slot, v string) error { return fmt.Errorf("unknown %s %s %q", s.Kind, slot, v) }
	switch s.Kind {
	case "cuttlesim":
		if _, ok := lookup(s.Level, cuttlesim.Levels()); !ok {
			return bad("level", s.Level)
		}
		if _, ok := lookup(s.Backend, cuttlesimBackends); !ok {
			return bad("backend", s.Backend)
		}
		if s.Style != "" || s.Optimize {
			return fmt.Errorf("cuttlesim has no netlist style or netopt")
		}
	case "rtlsim":
		if s.Level != "" {
			return fmt.Errorf("rtlsim has no optimization levels")
		}
		if _, ok := lookup(s.Style, styles); !ok {
			return bad("style", s.Style)
		}
		if _, ok := lookup(s.Backend, rtlsimBackends); !ok {
			return bad("backend", s.Backend)
		}
	case "interp", "native":
		if s != (Spec{Kind: s.Kind}) {
			return fmt.Errorf("%s has no levels, backends, styles or netopt", s.Kind)
		}
	default:
		return fmt.Errorf("unknown engine %q", s.Kind)
	}
	return nil
}

// Compiler is the native tier's compile cache: it builds a design's binary
// and launches it as a supervised subprocess. *native.Cache implements it;
// taking an interface keeps the packages that build only in-process engines
// from linking the native tier.
type Compiler interface {
	Engine(d *ast.Design, b *gomodel.Bindings) (sim.Engine, error)
}

// Build instantiates the engine over a checked design. b and c serve only
// the native engine: b serializes the design's external world into the
// compiled binary, c is the compile cache it builds through.
func (s Spec) Build(d *ast.Design, b *gomodel.Bindings, c Compiler, in Instrument) (sim.Engine, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("engine %s: %w", s, err)
	}
	switch s.Kind {
	case "interp":
		return engineOf(interp.New(d))
	case "native":
		if c == nil {
			return nil, fmt.Errorf("engine native: no compile cache to build through")
		}
		return c.Engine(d, b)
	case "rtlsim":
		style, _ := lookup(s.Style, styles)
		ckt, err := circuit.Compile(d, style)
		if err != nil {
			return nil, err
		}
		if s.Optimize {
			ckt = netopt.MustOptimize(ckt)
		}
		backend, _ := lookup(s.Backend, rtlsimBackends)
		return engineOf(rtlsim.New(ckt, rtlsim.Options{Backend: backend}))
	}
	level, _ := lookup(s.Level, cuttlesim.Levels())
	backend, _ := lookup(s.Backend, cuttlesimBackends)
	return engineOf(cuttlesim.New(d, cuttlesim.Options{
		Level: level, Backend: backend, Profile: in.Profile, Coverage: in.Coverage, Hook: in.Hook,
	}))
}

// engineOf keeps a failed constructor's typed nil pointer out of the
// sim.Engine interface.
func engineOf[E sim.Engine](e E, err error) (sim.Engine, error) {
	if err != nil {
		return nil, err
	}
	return e, nil
}

// groups are the engine lists the differential harnesses sweep, in
// InProcess order.
var groups = []struct {
	name    string
	engines []string
}{
	// Every level on closures, plus bytecode at static and activity.
	{"cuttlesim", []string{"cuttlesim(naive,closure)", "cuttlesim(split-sets,closure)",
		"cuttlesim(accumulate,closure)", "cuttlesim(reset-on-fail,closure)", "cuttlesim(merge-data,closure)",
		"cuttlesim(no-boc,closure)", "cuttlesim(static,closure)", "cuttlesim(activity,closure)",
		"cuttlesim(static,bytecode)", "cuttlesim(activity,bytecode)"}},
	// All three backends on the raw and the netopt-optimized netlist.
	{"rtlsim", []string{"rtlsim(koika,switch)", "rtlsim(koika,switch,opt)", "rtlsim(koika,closure)",
		"rtlsim(koika,closure,opt)", "rtlsim(koika,fused)", "rtlsim(koika,fused,opt)"}},
}

// InProcess is the cuttlesim and rtlsim groups: every engine
// that runs without the Go toolchain, and the one matrix kdiff, the fuzz
// targets and the bench harness's digest gate check.
func InProcess() []Spec {
	var out []Spec
	for _, g := range groups {
		for _, name := range g.engines {
			out = append(out, MustParse(name))
		}
	}
	return out
}

// Group resolves a group name — cuttlesim, rtlsim, or all
// (InProcess plus native) — or else a single engine name.
func Group(name string) ([]Spec, error) {
	if name == "all" {
		return append(InProcess(), MustParse("native")), nil
	}
	for _, g := range groups {
		if g.name == name {
			out := make([]Spec, len(g.engines))
			for i, n := range g.engines {
				out[i] = MustParse(n)
			}
			return out, nil
		}
	}
	s, err := Parse(name)
	if err != nil {
		return nil, fmt.Errorf("%w\n  groups: cuttlesim, rtlsim, all", err)
	}
	return []Spec{s}, nil
}

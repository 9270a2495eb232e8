// Package difftest is the project's differential-testing oracle: it
// generates random well-typed designs, runs every simulation engine in
// lockstep against the reference interpreter, and shrinks any divergence to
// a minimal reproducer. With no proofs backing the Go reproduction (the
// original Kôika stack leans on Coq), cross-engine agreement on arbitrary
// designs is the strongest correctness evidence the project has.
package difftest

import (
	"fmt"
	"strings"

	"cuttlego/internal/ast"
	"cuttlego/internal/cuttlesim"
	"cuttlego/internal/interp"
	"cuttlego/internal/sim"
)

// Check is one register predicate of the stall oracle: when a design
// deadlocks (livelocks), the predicates distinguish the interesting wedged
// state from ordinary quiescence. Op is one of "==", "!=", ">=".
type Check struct {
	Reg string
	Op  string
	Val uint64
}

// Holds evaluates the predicate against an engine's current state.
func (c Check) Holds(e sim.Engine) bool {
	v := e.Reg(c.Reg).Val
	switch c.Op {
	case "==":
		return v == c.Val
	case "!=":
		return v != c.Val
	case ">=":
		return v >= c.Val
	}
	return false
}

func (c Check) String() string { return fmt.Sprintf("%s%s%d", c.Reg, c.Op, c.Val) }

// Options configures one differential run.
type Options struct {
	// Engines are the pipelines checked against the reference interpreter.
	Engines []Spec
	// Cycles is the lockstep window.
	Cycles uint64
	// Profile cross-checks cuttlesim rule profiles (attempts and commits)
	// against the reference interpreter's firing log at the end of the run.
	Profile bool

	// Progress enables the deadlock oracle: if none of the named registers
	// changes for StallWindow consecutive cycles while every StallCheck
	// holds, the run fails with Kind "deadlock". The oracle watches the
	// reference interpreter, so it works with an empty engine list too.
	Progress    []string
	StallWindow uint64
	StallChecks []Check

	// ShrinkBudget caps the candidate evaluations one Shrink call may spend
	// (0 means DefaultShrinkBudget). Designs that are expensive to simulate
	// (long stall windows, many registers) want a smaller cap.
	ShrinkBudget int
}

// Failure describes the first divergence of a run. Kind is one of:
//
//	build    — an engine rejected or crashed on a design the checker accepts
//	panic    — an engine panicked mid-cycle
//	state    — register state diverged from the interpreter
//	fired    — rule-firing log diverged from the interpreter
//	profile  — cuttlesim rule profile disagrees with the firing log
//	final    — an external engine's final state diverged (gomodel)
//	deadlock — the stall oracle tripped on the reference run
type Failure struct {
	Kind     string
	Engine   string
	Cycle    uint64
	Register string
	Rule     string
	Detail   string
}

func (f *Failure) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", f.Kind)
	if f.Engine != "" {
		fmt.Fprintf(&b, " engine=%s", f.Engine)
	}
	fmt.Fprintf(&b, " cycle=%d", f.Cycle)
	if f.Register != "" {
		fmt.Fprintf(&b, " reg=%s", f.Register)
	}
	if f.Rule != "" {
		fmt.Fprintf(&b, " rule=%s", f.Rule)
	}
	if f.Detail != "" {
		fmt.Fprintf(&b, ": %s", f.Detail)
	}
	return b.String()
}

// Matches reports whether two failures identify the same bug for shrinking
// purposes: same kind and same engine (the cycle, register, and detail are
// free to move as the design gets smaller).
func (f *Failure) Matches(o *Failure) bool {
	return f != nil && o != nil && f.Kind == o.Kind && f.Engine == o.Engine
}

// profiler is the face of an engine that tracks rule statistics.
type profiler interface {
	RuleStats() []cuttlesim.RuleStat
}

// Run builds every engine from a fresh copy of the design (build must
// return an independently checked design on each call — engines annotate
// and mutate their input) and runs the matrix in lockstep for opts.Cycles,
// returning the first divergence or nil. Engine construction errors,
// panics, and per-cycle disagreements on register state or rule firings are
// all failures; engines whose Make reports ErrUnsupported for this design
// are skipped.
func Run(build func() *ast.Design, opts Options) *Failure {
	ref, err := buildRef(build)
	if err != nil {
		return &Failure{Kind: "build", Engine: "interp", Detail: err.Error()}
	}
	d := ref.Design()

	type runner struct {
		spec Spec
		eng  sim.Engine
	}
	var engines []runner
	// Native engines hold a subprocess; release it on every exit path so
	// fuzzing and shrinking don't accumulate them.
	defer func() {
		for _, p := range engines {
			if c, ok := p.eng.(interface{ Close() error }); ok {
				c.Close()
			}
		}
	}()
	var finals []Spec
	for _, spec := range opts.Engines {
		if spec.Make == nil {
			if spec.Final != nil {
				finals = append(finals, spec)
			}
			continue
		}
		eng, err := safeMake(spec, build)
		if err != nil {
			if IsUnsupported(err) {
				continue
			}
			return &Failure{Kind: "build", Engine: spec.Name, Detail: err.Error()}
		}
		engines = append(engines, runner{spec, eng})
	}

	// Reference commit counts feed the profile check.
	commits := make(map[string]uint64, len(d.Rules))

	// Stall-oracle state: last observed progress values and the cycle they
	// last changed.
	progressLast := make([]uint64, len(opts.Progress))
	var progressSince uint64
	for i, name := range opts.Progress {
		progressLast[i] = ref.Reg(name).Val
	}

	for c := uint64(0); c < opts.Cycles; c++ {
		if err := safeCycle(ref); err != nil {
			return &Failure{Kind: "panic", Engine: "interp", Cycle: c, Detail: err.Error()}
		}
		want := sim.StateOf(ref)
		for _, r := range d.Rules {
			if ref.RuleFired(r.Name) {
				commits[r.Name]++
			}
		}
		for _, p := range engines {
			if err := safeCycle(p.eng); err != nil {
				return &Failure{Kind: "panic", Engine: p.spec.Name, Cycle: c, Detail: err.Error()}
			}
			got := sim.StateOf(p.eng)
			for i := range want {
				if got[i] != want[i] {
					return &Failure{
						Kind: "state", Engine: p.spec.Name, Cycle: c, Register: d.Registers[i].Name,
						Detail: fmt.Sprintf("engine has %v, interp has %v", got[i], want[i]),
					}
				}
			}
			for _, r := range d.Rules {
				if p.eng.RuleFired(r.Name) != ref.RuleFired(r.Name) {
					return &Failure{
						Kind: "fired", Engine: p.spec.Name, Cycle: c, Rule: r.Name,
						Detail: fmt.Sprintf("engine fired=%v, interp disagrees", p.eng.RuleFired(r.Name)),
					}
				}
			}
		}
		if len(opts.Progress) > 0 {
			moved := false
			for i, name := range opts.Progress {
				if v := ref.Reg(name).Val; v != progressLast[i] {
					progressLast[i] = v
					moved = true
				}
			}
			if moved {
				progressSince = c
			} else if c-progressSince >= opts.StallWindow && opts.StallWindow > 0 {
				if holdsAll(ref, opts.StallChecks) {
					return &Failure{
						Kind: "deadlock", Cycle: c,
						Detail: fmt.Sprintf("no progress on %v for %d cycles with %v",
							opts.Progress, c-progressSince, opts.StallChecks),
					}
				}
			}
		}
	}

	if opts.Profile {
		for _, p := range engines {
			pr, ok := p.eng.(profiler)
			if !ok {
				continue
			}
			for _, st := range pr.RuleStats() {
				if st.Attempts != opts.Cycles {
					return &Failure{
						Kind: "profile", Engine: p.spec.Name, Cycle: opts.Cycles, Rule: st.Rule,
						Detail: fmt.Sprintf("%d attempts over %d cycles", st.Attempts, opts.Cycles),
					}
				}
				if st.Commits != commits[st.Rule] {
					return &Failure{
						Kind: "profile", Engine: p.spec.Name, Cycle: opts.Cycles, Rule: st.Rule,
						Detail: fmt.Sprintf("engine counts %d commits, interp fired it %d times", st.Commits, commits[st.Rule]),
					}
				}
			}
		}
	}

	for _, spec := range finals {
		got, err := spec.Final(build(), opts.Cycles)
		if err != nil {
			if IsUnsupported(err) {
				continue
			}
			return &Failure{Kind: "build", Engine: spec.Name, Cycle: opts.Cycles, Detail: err.Error()}
		}
		for _, r := range d.Registers {
			if got[r.Name] != ref.Reg(r.Name).Val {
				return &Failure{
					Kind: "final", Engine: spec.Name, Cycle: opts.Cycles, Register: r.Name,
					Detail: fmt.Sprintf("engine has %#x, interp has %#x", got[r.Name], ref.Reg(r.Name).Val),
				}
			}
		}
	}
	return nil
}

func holdsAll(e sim.Engine, checks []Check) bool {
	for _, c := range checks {
		if !c.Holds(e) {
			return false
		}
	}
	return true
}

func buildRef(build func() *ast.Design) (_ *interp.Simulator, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return interp.New(build())
}

func safeMake(spec Spec, build func() *ast.Design) (_ sim.Engine, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return spec.Make(build())
}

func safeCycle(e sim.Engine) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	e.Cycle()
	return nil
}

package difftest

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"

	"cuttlego/internal/ast"
	"cuttlego/internal/engine"
	"cuttlego/internal/gomodel"
	"cuttlego/internal/native"
	"cuttlego/internal/sim"
)

// ErrUnsupported marks a design an engine legitimately cannot run (gomodel
// rejects external functions and Goldberg registers; a missing Go toolchain
// falls in the same bucket). Run skips the engine instead of failing.
var ErrUnsupported = errors.New("difftest: design unsupported by engine")

// IsUnsupported reports whether err means "skip this engine for this
// design".
func IsUnsupported(err error) bool { return errors.Is(err, ErrUnsupported) }

// Spec is one engine in the differential matrix. In-process engines set
// Make and are compared cycle-by-cycle; external engines set Final instead
// and are compared on final register state only.
type Spec struct {
	Name  string
	Make  func(d *ast.Design) (sim.Engine, error)
	Final func(d *ast.Design, cycles uint64) (map[string]uint64, error)
}

// registrySpec wraps a registry engine for the lockstep matrix: profiling
// on, so the profile oracle has data.
func registrySpec(e engine.Spec) Spec {
	if e.Kind == "native" {
		return NativeSpec()
	}
	return Spec{
		Name: e.String(),
		Make: func(d *ast.Design) (sim.Engine, error) {
			return e.Build(d, nil, nil, engine.Instrument{Profile: true})
		},
	}
}

// GomodelSpec returns the compiled-model engine: the design is emitted as a
// standalone Go program, built and run out of process, and its printed
// final state compared against the interpreter. Designs gomodel rejects
// (external functions, Goldberg registers) and hosts without a Go
// toolchain are skipped via ErrUnsupported.
func GomodelSpec() Spec {
	return Spec{Name: "gomodel", Final: runGomodel}
}

func runGomodel(d *ast.Design, cycles uint64) (map[string]uint64, error) {
	src, err := gomodel.Emit(d)
	if err != nil {
		// Emit's rejections are capability limits, not divergences.
		return nil, fmt.Errorf("%w: %v", ErrUnsupported, err)
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		return nil, fmt.Errorf("%w: go toolchain not found", ErrUnsupported)
	}
	dir, err := os.MkdirTemp("", "kdiff-gomodel-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	file := filepath.Join(dir, "model.go")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		return nil, err
	}
	cmd := exec.Command(goTool, "run", file, fmt.Sprintf("-cycles=%d", cycles))
	cmd.Env = append(os.Environ(), "GOFLAGS=", "GO111MODULE=off")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("generated model failed: %v\n%s", err, out)
	}
	vals := make(map[string]uint64)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		name, hex, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("unexpected model output line %q", line)
		}
		var v uint64
		if _, err := fmt.Sscanf(hex, "%x", &v); err != nil {
			return nil, fmt.Errorf("unexpected model output line %q", line)
		}
		vals[name] = v
	}
	return vals, nil
}

// nativeCache lazily opens one compile cache per process for the native
// difftest spec. The cache lives under the OS temp directory at a fixed
// path, so repeated runs (and fuzz iterations) reuse binaries instead of
// recompiling; digest keys make cross-version collisions impossible.
var (
	nativeCacheOnce sync.Once
	nativeCacheVal  *native.Cache
	nativeCacheErr  error
)

func nativeCache() (*native.Cache, error) {
	nativeCacheOnce.Do(func() {
		dir := filepath.Join(os.TempDir(), "cuttlego-native-cache")
		nativeCacheVal, nativeCacheErr = native.OpenCache(dir, native.CacheOptions{})
	})
	return nativeCacheVal, nativeCacheErr
}

// NativeSpec returns the AOT native-tier engine: the design is compiled to
// a standalone servo binary through the shared compile cache and driven
// cycle-by-cycle over the supervisor protocol, so the whole pipeline —
// emission, digest-keyed caching, the handshake gate, and the wire protocol
// — sits inside the differential net. Designs the servo emitter rejects
// (Goldberg registers, external functions without bindings) and hosts
// without a Go toolchain are skipped via ErrUnsupported.
func NativeSpec() Spec {
	return Spec{
		Name: "native",
		Make: func(d *ast.Design) (sim.Engine, error) {
			if _, err := exec.LookPath("go"); err != nil {
				return nil, fmt.Errorf("%w: go toolchain not found", ErrUnsupported)
			}
			// Emission failures are capability limits, not divergences;
			// classify them before paying for cache and compile machinery.
			if _, err := gomodel.EmitServo(d, nil); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrUnsupported, err)
			}
			c, err := nativeCache()
			if err != nil {
				return nil, err
			}
			return engine.MustParse("native").Build(d, nil, c, engine.Instrument{})
		},
	}
}

// Matrix resolves a comma-separated engine list to specs: the registry
// groups cuttlesim and rtlsim (engine.Group), native, gomodel,
// or all of them. The reference interpreter is always part of a run and
// never needs listing.
func Matrix(names string) ([]Spec, error) {
	var specs []Spec
	for _, name := range strings.Split(names, ",") {
		switch name = strings.TrimSpace(name); name {
		case "", "interp":
			// The interpreter is the reference; nothing to add.
		case "gomodel":
			specs = append(specs, GomodelSpec())
		default:
			group, err := engine.Group(name)
			if err != nil {
				return nil, fmt.Errorf("%w\n  or gomodel", err)
			}
			for _, e := range group {
				specs = append(specs, registrySpec(e))
			}
			if name == "all" {
				specs = append(specs, GomodelSpec())
			}
		}
	}
	return specs, nil
}

// InProcess is the default matrix for tests: every engine that runs
// without shelling out to the Go toolchain (engine.InProcess).
func InProcess() []Spec {
	var specs []Spec
	for _, e := range engine.InProcess() {
		specs = append(specs, registrySpec(e))
	}
	return specs
}

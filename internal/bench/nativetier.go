// The native-tier report: the AOT-compiled execution tier timed against the
// in-process Cuttlesim engines on the acceptance designs, plus the compile
// economics (cold go-build latency, warm cache-hit latency) that decide
// when promoting a hot session to the native tier pays off. The JSON form
// is the BENCH_4 artifact; the text form is kbench -compile-cache output.
//
// Cells are measured sequentially and the report records GOMAXPROCS and NumCPU: on a one-core host the native
// subprocess and the supervisor share the core, so native wins look smaller
// than they are on real hardware. The toolchain version is recorded because
// the compile latencies are a property of the go compiler as much as of the
// designs.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"cuttlego/internal/engine"
	"cuttlego/internal/native"
)

// NativeDesigns is the default design set: the two acceptance-gate
// headliners.
var NativeDesigns = []string{"rv32i", "fft"}

// NativeResult is one (design, engine) timing row.
type NativeResult struct {
	Design       string  `json:"design"`
	Engine       string  `json:"engine"`
	Cycles       uint64  `json:"cycles"`
	NsPerCycle   float64 `json:"ns_per_cycle"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	StateDigest  string  `json:"state_digest,omitempty"`
	// SpeedupVsBestInterp is this row's throughput relative to the fastest
	// in-process engine on the same design (>1 means native won).
	SpeedupVsBestInterp float64 `json:"speedup_vs_best_interp,omitempty"`
	Error               string  `json:"error,omitempty"`
}

// NativeCompile is one design's compile-cache economics.
type NativeCompile struct {
	Design string `json:"design"`
	// CacheKey is the digest key the binary is stored under.
	CacheKey string `json:"cache_key"`
	// ColdCompileMs is the go-build wall time on a cache miss.
	ColdCompileMs float64 `json:"cold_compile_ms"`
	// WarmCacheMs is the lookup wall time on a cache hit (including the
	// integrity reread of the binary).
	WarmCacheMs float64 `json:"warm_cache_ms"`
	Error       string  `json:"error,omitempty"`
}

// NativeReport is the BENCH_4 export document.
type NativeReport struct {
	Schema     string          `json:"schema"`
	Window     uint64          `json:"window_cycles"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	NumCPU     int             `json:"num_cpu"`
	Toolchain  string          `json:"toolchain"`
	Incomplete bool            `json:"incomplete,omitempty"`
	Compiles   []NativeCompile `json:"compiles"`
	Results    []NativeResult  `json:"results"`
}

// nativeCells returns the engine grid: the native tier against the two
// Cuttlesim backends it must beat (the closure and bytecode engines at the
// static optimization level). interp marks the in-process baselines the
// speedup column is computed against.
func nativeCells(c *native.Cache) []struct {
	eng    Engine
	interp bool
} {
	return []struct {
		eng    Engine
		interp bool
	}{
		{Engine{Spec: engine.MustParse("native"), Cache: c}, false},
		{named("cuttlesim(static,closure)"), true},
		{named("cuttlesim(static,bytecode)"), true},
	}
}

// WriteNativeJSON measures the native-tier grid and writes the report as
// indented JSON — the generator behind BENCH_4.json. cacheDir roots the
// compile cache; a fresh directory gives honest cold-compile numbers.
func WriteNativeJSON(w io.Writer, opts Options, cacheDir string) error {
	return WriteNativeJSONCtx(context.Background(), w, opts, cacheDir)
}

// WriteNativeJSONCtx is WriteNativeJSON under a context. The report is
// always written and always valid JSON; failed cells keep their slots with
// Error set. Digest parity between the native tier and the in-process
// engines on each design is enforced unconditionally.
func WriteNativeJSONCtx(ctx context.Context, w io.Writer, opts Options, cacheDir string) error {
	rep, firstErr := MeasureNative(ctx, opts, cacheDir)
	if err := EncodeNative(w, rep); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}

// EncodeNative writes an already-measured report as indented JSON.
func EncodeNative(w io.Writer, rep NativeReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// NativeTier renders the grid as a table: per design, ns/cycle rows plus
// the compile-cache economics.
func NativeTier(w io.Writer, opts Options, cacheDir string) error {
	rep, firstErr := MeasureNative(context.Background(), opts, cacheDir)
	RenderNative(w, rep)
	return firstErr
}

// RenderNative writes an already-measured report as a table.
func RenderNative(w io.Writer, rep NativeReport) {
	fmt.Fprintf(w, "Native tier: %d-cycle window, GOMAXPROCS=%d, NumCPU=%d, %s\n",
		rep.Window, rep.GOMAXPROCS, rep.NumCPU, rep.Toolchain)
	if rep.GOMAXPROCS == 1 {
		fmt.Fprintf(w, "note: single-core host; supervisor and subprocess share the core\n")
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	last := ""
	for _, r := range rep.Results {
		if r.Design != last {
			fmt.Fprintf(tw, "\n%s\tns/cycle\tMcycles/s\tspeedup\n", r.Design)
			last = r.Design
		}
		if r.Error != "" {
			fmt.Fprintf(tw, "  %s\tERROR: %s\t\t\n", r.Engine, r.Error)
			continue
		}
		fmt.Fprintf(tw, "  %s\t%.1f\t%.2f\t%.2fx\n",
			r.Engine, r.NsPerCycle, r.CyclesPerSec/1e6, r.SpeedupVsBestInterp)
	}
	fmt.Fprintf(tw, "\ncompile cache\tcold ms\twarm ms\tkey\n")
	for _, cr := range rep.Compiles {
		if cr.Error != "" {
			fmt.Fprintf(tw, "  %s\tERROR: %s\t\t\n", cr.Design, cr.Error)
			continue
		}
		fmt.Fprintf(tw, "  %s\t%.1f\t%.2f\t%s\n", cr.Design, cr.ColdCompileMs, cr.WarmCacheMs, cr.CacheKey)
	}
	tw.Flush()
}

// MeasureNative runs the grid and assembles the report. The compile pass
// runs first (so engine measurements below are all warm-cache launches),
// recording the cold build and warm lookup latency per design.
func MeasureNative(ctx context.Context, opts Options, cacheDir string) (NativeReport, error) {
	rep := NativeReport{
		Schema:     "cuttlego-native/v1",
		Window:     opts.Cycles,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Toolchain:  runtime.Version(),
	}
	cache, err := native.OpenCache(cacheDir, native.CacheOptions{})
	if err != nil {
		return rep, err
	}
	designs := opts.Designs
	if len(designs) == 0 {
		designs = NativeDesigns
	}
	cells := nativeCells(cache)
	var firstErr error
	for _, name := range designs {
		bm, ok := Lookup(name)
		if !ok {
			return rep, fmt.Errorf("bench: unknown design %q (catalogue: %v)", name, Names())
		}

		cr := NativeCompile{Design: name}
		inst := bm.New()
		cold, err := cache.Build(inst.Design, inst.Native)
		if err != nil {
			cr.Error = err.Error()
			rep.Incomplete = true
			if firstErr == nil {
				firstErr = err
			}
		} else {
			cr.CacheKey = cold.Key
			cr.ColdCompileMs = float64(cold.CompileTime.Nanoseconds()) / 1e6
			warmStart := time.Now()
			if _, err := cache.Build(inst.Design, inst.Native); err == nil {
				cr.WarmCacheMs = float64(time.Since(warmStart).Nanoseconds()) / 1e6
			}
			if cold.Cached {
				// Pre-warmed cache directory: there was no cold build to time.
				cr.ColdCompileMs = 0
			}
		}
		rep.Compiles = append(rep.Compiles, cr)

		rows := make([]NativeResult, 0, len(cells))
		bestInterp := 0.0
		for _, c := range cells {
			r := NativeResult{Design: name, Engine: c.eng.String()}
			if err := ctx.Err(); err != nil {
				r.Error = "not run: cancelled"
				rep.Incomplete = true
				rows = append(rows, r)
				continue
			}
			m, err := Measure(bm, c.eng, opts.Cycles)
			if err != nil {
				r.Error = err.Error()
				rep.Incomplete = true
				if firstErr == nil {
					firstErr = err
				}
				rows = append(rows, r)
				continue
			}
			r.Cycles = m.Cycles
			if m.Cycles > 0 {
				r.NsPerCycle = float64(m.Elapsed.Nanoseconds()) / float64(m.Cycles)
			}
			r.CyclesPerSec = m.CPS()
			r.StateDigest = fmt.Sprintf("%016x", m.Digest)
			if c.interp && r.NsPerCycle > 0 && (bestInterp == 0 || r.NsPerCycle < bestInterp) {
				bestInterp = r.NsPerCycle
			}
			rows = append(rows, r)
		}
		for i := range rows {
			if rows[i].Error == "" && rows[i].NsPerCycle > 0 && bestInterp > 0 {
				rows[i].SpeedupVsBestInterp = bestInterp / rows[i].NsPerCycle
			}
		}
		if err := checkNativeDigests(name, rows); err != nil {
			rep.Incomplete = true
			if firstErr == nil {
				firstErr = err
			}
		}
		rep.Results = append(rep.Results, rows...)
	}
	return rep, firstErr
}

// checkNativeDigests enforces digest parity across every row of one design:
// a native binary that lands on a different final state than the in-process
// engines disqualifies the report.
func checkNativeDigests(design string, rows []NativeResult) error {
	ref := NativeResult{}
	for _, r := range rows {
		if r.Error != "" || r.StateDigest == "" {
			continue
		}
		if ref.StateDigest == "" {
			ref = r
			continue
		}
		if r.StateDigest != ref.StateDigest {
			return fmt.Errorf("bench: native digest mismatch on %s: %s has %s, %s has %s",
				design, ref.Engine, ref.StateDigest, r.Engine, r.StateDigest)
		}
	}
	return nil
}

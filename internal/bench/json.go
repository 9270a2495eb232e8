// Machine-readable benchmark output, so successive PRs can track a
// BENCH_*.json performance trajectory instead of eyeballing table text.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
)

// JSONResult is one (design, engine) timing in the stable export schema.
// A run that failed or was cancelled keeps its slot with Error set and
// zeroed timings, so consumers always see the full (design, engine) grid.
type JSONResult struct {
	Design       string  `json:"design"`
	Engine       string  `json:"engine"`
	Cycles       uint64  `json:"cycles"`
	NsPerCycle   float64 `json:"ns_per_cycle"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	// StateDigest is the FNV-1a hash of the final architectural state; all
	// engines on one design row must agree on it.
	StateDigest string `json:"state_digest,omitempty"`
	Error       string `json:"error,omitempty"`
}

// JSONReport is the top-level export document.
type JSONReport struct {
	Schema string `json:"schema"`
	Window uint64 `json:"window_cycles"`
	// Incomplete marks a report whose runs were cut short (timeout,
	// interrupt) or failed; the per-result Error fields say which.
	Incomplete bool         `json:"incomplete,omitempty"`
	Results    []JSONResult `json:"results"`
}

// jsonEngines is the engine set the JSON trajectory tracks: the paper's
// two headline pipelines plus the strengthened (netopt + fused) baseline
// and the switch interpreter as the floor. The activity ablation runs both
// Cuttlesim backends with and without activity-driven scheduling.
func jsonEngines() []Engine {
	return engines("cuttlesim(static,closure)", "cuttlesim(static,bytecode)",
		"cuttlesim(activity,closure)", "cuttlesim(activity,bytecode)",
		"rtlsim(koika,closure)", "rtlsim(koika,switch)", "rtlsim(koika,fused,opt)")
}

// WriteJSON measures every Table 1 benchmark against the tracked engine
// set and writes the report as indented JSON. Measurements fan out over
// the worker pool — timing one (design, engine) pair is independent of the
// others, and each job gets a fresh instance. Wall-clock numbers under
// contention are noisier than sequential ones; the schema records them
// per-instance either way, and the output ordering is deterministic.
func WriteJSON(w io.Writer, opts Options, workers int) error {
	return WriteJSONCtx(context.Background(), w, opts, workers)
}

// WriteJSONCtx is WriteJSON under a context. The report is always written
// and always valid JSON: a failed run keeps its slot with its error, runs
// never dispatched because ctx was cancelled are marked "not run", and the
// report carries incomplete=true. The first failure (or the cancellation
// cause) is returned after the report has been encoded, so callers can
// exit nonzero without losing the partial results.
func WriteJSONCtx(ctx context.Context, w io.Writer, opts Options, workers int) error {
	suite, err := opts.selectBenchmarks()
	if err != nil {
		return err
	}
	type cell struct {
		bm  Benchmark
		eng Engine
	}
	var cells []cell
	for _, bm := range suite {
		for _, eng := range jsonEngines() {
			cells = append(cells, cell{bm, eng})
		}
	}
	type outcome struct {
		m   Measurement
		err error
	}
	results, ran := RunParallelCtx(ctx, len(cells), workers, func(i int) outcome {
		m, err := Measure(cells[i].bm, cells[i].eng, opts.Cycles)
		return outcome{m, err}
	})
	ranSet := make([]bool, len(cells))
	for _, i := range ran {
		ranSet[i] = true
	}
	rep := JSONReport{Schema: "cuttlego-bench/v1", Window: opts.Cycles}
	var firstErr error
	for i, r := range results {
		jr := JSONResult{Design: cells[i].bm.Name, Engine: cells[i].eng.String()}
		switch {
		case !ranSet[i]:
			jr.Error = "not run: cancelled"
			rep.Incomplete = true
		case r.err != nil:
			jr.Error = r.err.Error()
			rep.Incomplete = true
			if firstErr == nil {
				firstErr = r.err
			}
		default:
			ns := 0.0
			if r.m.Cycles > 0 {
				ns = float64(r.m.Elapsed.Nanoseconds()) / float64(r.m.Cycles)
			}
			jr.Cycles = r.m.Cycles
			jr.NsPerCycle = ns
			jr.CyclesPerSec = r.m.CPS()
			jr.StateDigest = fmt.Sprintf("%016x", r.m.Digest)
		}
		rep.Results = append(rep.Results, jr)
	}
	if opts.DigestCheck && firstErr == nil {
		firstErr = checkDigests(rep.Results)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}

// checkDigests verifies that every engine that completed a design agrees on
// the final state digest — a lockstep-lite soundness gate cheap enough for
// CI smoke runs.
func checkDigests(results []JSONResult) error {
	first := map[string]JSONResult{}
	for _, r := range results {
		if r.Error != "" || r.StateDigest == "" {
			continue
		}
		ref, ok := first[r.Design]
		if !ok {
			first[r.Design] = r
			continue
		}
		if r.StateDigest != ref.StateDigest {
			return fmt.Errorf("bench: digest mismatch on %s: %s has %s, %s has %s",
				r.Design, ref.Engine, ref.StateDigest, r.Engine, r.StateDigest)
		}
	}
	return nil
}

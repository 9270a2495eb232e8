// The intra-design scaling report: the same designs timed across pool
// widths for both parallel engines (BSP-sharded rtlsim levels, conflict-
// free Cuttlesim rule groups) next to their sequential baselines. The
// JSON form is the BENCH_3 trajectory artifact; the text form is kbench
// -scaling output for humans.
//
// Unlike the grid export, scaling cells are always measured sequentially:
// the parallelism under test lives *inside* each engine, and running two
// pooled engines at once would have their workers contend for the same
// cores and corrupt both timings. The report records GOMAXPROCS and
// NumCPU so a consumer can tell a one-core host (where speedup > 1 is
// physically impossible) from a real scaling failure.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
)

// ScalingWorkerWidths is the pool-width sweep each parallel engine runs.
var ScalingWorkerWidths = []int{1, 2, 4, 8}

// ScalingDesigns is the default design set: the two Table 1 headliners the
// acceptance gate watches (rv32i, fft) plus the two regimes built for the
// parallel engines — fft64 (wide netlist levels for BSP sharding) and
// pstress (independent heavy rules for conflict-free waves).
var ScalingDesigns = []string{"rv32i", "fft", "fft64", "pstress"}

// ScalingResult is one (design, engine, workers) timing.
type ScalingResult struct {
	Design       string  `json:"design"`
	Engine       string  `json:"engine"`
	Workers      int     `json:"workers"`
	Cycles       uint64  `json:"cycles"`
	NsPerCycle   float64 `json:"ns_per_cycle"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	StateDigest  string  `json:"state_digest,omitempty"`
	// SpeedupVsBestSeq is this row's throughput relative to the fastest
	// sequential engine on the same design (>1 means the pool won).
	SpeedupVsBestSeq float64 `json:"speedup_vs_best_seq,omitempty"`
	Error            string  `json:"error,omitempty"`
}

// ScalingReport is the BENCH_3 export document.
type ScalingReport struct {
	Schema     string          `json:"schema"`
	Window     uint64          `json:"window_cycles"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	NumCPU     int             `json:"num_cpu"`
	Incomplete bool            `json:"incomplete,omitempty"`
	Results    []ScalingResult `json:"results"`
}

// scalingCell is one grid entry: seq marks the sequential baselines the
// speedup column is computed against.
type scalingCell struct {
	eng     Engine
	workers int
	seq     bool
}

func scalingCells() []scalingCell {
	var cells []scalingCell
	for _, e := range engines("cuttlesim(static,closure)", "cuttlesim(static,bytecode)", "rtlsim(koika,fused,opt)") {
		cells = append(cells, scalingCell{e, 1, true})
	}
	for _, pattern := range []string{"cuttlesim-par(closure,w%d)", "rtlsim-par(koika,opt,w%d)"} {
		for _, w := range ScalingWorkerWidths {
			cells = append(cells, scalingCell{named(fmt.Sprintf(pattern, w)), w, false})
		}
	}
	return cells
}

// WriteScalingJSON measures the scaling grid and writes the report as
// indented JSON — the generator behind BENCH_3.json.
func WriteScalingJSON(w io.Writer, opts Options) error {
	return WriteScalingJSONCtx(context.Background(), w, opts)
}

// WriteScalingJSONCtx is WriteScalingJSON under a context. Like the grid
// export, the report is always written and always valid JSON; failed or
// undispatched cells keep their slots with Error set and the report is
// marked incomplete. Digest parity across every engine and pool width on
// one design is enforced unconditionally — a scaling number from an engine
// that computed a different state is worthless.
func WriteScalingJSONCtx(ctx context.Context, w io.Writer, opts Options) error {
	rep, firstErr := MeasureScaling(ctx, opts)
	if err := EncodeScaling(w, rep); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}

// EncodeScaling writes an already-measured report as indented JSON.
func EncodeScaling(w io.Writer, rep ScalingReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Scaling renders the grid as a table: one block per design, ns/cycle and
// speedup-vs-best-sequential per engine row.
func Scaling(w io.Writer, opts Options) error {
	return ScalingCtx(context.Background(), w, opts)
}

// ScalingCtx is Scaling under a context.
func ScalingCtx(ctx context.Context, w io.Writer, opts Options) error {
	rep, firstErr := MeasureScaling(ctx, opts)
	RenderScaling(w, rep)
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}

// RenderScaling writes an already-measured report as a table.
func RenderScaling(w io.Writer, rep ScalingReport) {
	fmt.Fprintf(w, "Intra-design scaling: %d-cycle window, GOMAXPROCS=%d, NumCPU=%d\n",
		rep.Window, rep.GOMAXPROCS, rep.NumCPU)
	if rep.GOMAXPROCS == 1 {
		fmt.Fprintf(w, "note: single-core host; pool overhead is measurable, speedup is not\n")
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	last := ""
	for _, r := range rep.Results {
		if r.Design != last {
			fmt.Fprintf(tw, "\n%s\tworkers\tns/cycle\tMcycles/s\tspeedup\n", r.Design)
			last = r.Design
		}
		if r.Error != "" {
			fmt.Fprintf(tw, "  %s\t%d\tERROR: %s\t\t\n", r.Engine, r.Workers, r.Error)
			continue
		}
		fmt.Fprintf(tw, "  %s\t%d\t%.1f\t%.2f\t%.2fx\n",
			r.Engine, r.Workers, r.NsPerCycle, r.CyclesPerSec/1e6, r.SpeedupVsBestSeq)
	}
	tw.Flush()
}

// MeasureScaling runs the grid and assembles the report. Cells run one at
// a time (see the package comment) in deterministic order. The error is
// the first measurement failure or digest mismatch; the report is complete
// modulo the cells it marks as failed.
func MeasureScaling(ctx context.Context, opts Options) (ScalingReport, error) {
	rep := ScalingReport{
		Schema:     "cuttlego-scaling/v1",
		Window:     opts.Cycles,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	designs := opts.Designs
	if len(designs) == 0 {
		designs = ScalingDesigns
	}
	cells := scalingCells()
	var firstErr error
	for _, name := range designs {
		bm, ok := Lookup(name)
		if !ok {
			return rep, fmt.Errorf("bench: unknown design %q (catalogue: %v)", name, Names())
		}
		rows := make([]ScalingResult, 0, len(cells))
		bestSeq := 0.0
		for _, c := range cells {
			r := ScalingResult{Design: name, Engine: c.eng.String(), Workers: c.workers}
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
			if c.seq && r.NsPerCycle > 0 && (bestSeq == 0 || r.NsPerCycle < bestSeq) {
				bestSeq = r.NsPerCycle
			}
			rows = append(rows, r)
		}
		for i := range rows {
			if rows[i].Error == "" && rows[i].NsPerCycle > 0 && bestSeq > 0 {
				rows[i].SpeedupVsBestSeq = bestSeq / rows[i].NsPerCycle
			}
		}
		if err := checkScalingDigests(name, rows); err != nil {
			rep.Incomplete = true
			if firstErr == nil {
				firstErr = err
			}
		}
		rep.Results = append(rep.Results, rows...)
	}
	return rep, firstErr
}

// checkScalingDigests enforces digest parity across every row of one
// design: an engine or pool width that lands on a different final state
// disqualifies the whole report.
func checkScalingDigests(design string, rows []ScalingResult) error {
	ref := ScalingResult{}
	for _, r := range rows {
		if r.Error != "" || r.StateDigest == "" {
			continue
		}
		if ref.StateDigest == "" {
			ref = r
			continue
		}
		if r.StateDigest != ref.StateDigest {
			return fmt.Errorf("bench: scaling digest mismatch on %s: %s(w%d) has %s, %s(w%d) has %s",
				design, ref.Engine, ref.Workers, ref.StateDigest, r.Engine, r.Workers, r.StateDigest)
		}
	}
	return nil
}

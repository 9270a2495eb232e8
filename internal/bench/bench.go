// Package bench is the evaluation harness: it assembles the paper's
// benchmark suite (Table 1) and regenerates every table and figure of the
// evaluation section — Figure 1 (Cuttlesim vs the circuit-level simulator),
// Figure 2 (dynamic Kôika-style vs static Bluespec-style RTL), Figure 3
// (engine/backend sensitivity, standing in for the paper's GCC/Clang
// sweep), and the §3.2–3.3 optimization-ladder ablation.
//
// Absolute numbers depend on the host; the claims under reproduction are
// the shapes: who wins, by roughly what factor, and where the advantage
// narrows.
package bench

import (
	"fmt"
	"time"

	"cuttlego/internal/ast"
	"cuttlego/internal/dsp"
	"cuttlego/internal/engine"
	"cuttlego/internal/gomodel"
	"cuttlego/internal/riscv"
	"cuttlego/internal/rvcore"
	"cuttlego/internal/sim"
	"cuttlego/internal/stm"
	"cuttlego/internal/workload"
)

// Instance is one freshly built benchmark design plus its testbench (nil
// when the design is self-driving). Engines must not share instances: the
// testbench and external functions carry per-instance state.
//
// Native, when non-nil, carries the gomodel servo bindings that serialize
// this instance's external world (memory images, testbench drain) into a
// generated program, so the native execution tier can embed the whole
// harness in a compiled binary. Designs without external functions or
// testbenches need no bindings.
type Instance struct {
	Design *ast.Design
	Bench  sim.Testbench
	Native *gomodel.Bindings
}

// Benchmark describes one Table 1 row.
type Benchmark struct {
	// Name matches the paper's benchmark names.
	Name string
	// Description is the Table 1 annotation.
	Description string
	// Meta: the design is produced by meta-programming (code generation).
	Meta bool
	// Comb: single combinational rule, no scheduling or conflicts.
	Comb bool
	// Workload describes what runs on the design.
	Workload string
	// New builds a fresh instance.
	New func() Instance
}

// Suite returns the Table 1 benchmarks. The primes limit scales the
// processor workloads (the paper runs to completion; we default to a
// fixed simulation window instead, see Table1).
func Suite() []Benchmark {
	return []Benchmark{
		{
			Name:        "collatz",
			Description: "Trivial state machine",
			Workload:    "restarting Collatz trajectories",
			New: func() Instance {
				return Instance{Design: CollatzBench(27).MustCheck()}
			},
		},
		{
			Name:        "fir",
			Description: "Finite impulse response filter",
			Meta:        true,
			Comb:        true,
			Workload:    "self-driving LCG sample stream",
			New: func() Instance {
				return Instance{Design: FIRBench().MustCheck()}
			},
		},
		{
			Name:        "fft",
			Description: "Part of a Fast Fourier Transform",
			Meta:        true,
			Comb:        true,
			Workload:    "feedback-driven butterfly network",
			New: func() Instance {
				return Instance{Design: FFTBench(16).MustCheck()}
			},
		},
		{
			Name:        "rv32i",
			Description: "Small RISCV core (branch predictor: pc + 4)",
			Workload:    "primes",
			New:         func() Instance { return coreInstance(rvcore.RV32I()) },
		},
		{
			Name:        "rv32e",
			Description: "Embedded variant of rv32i (predictor: pc + 4)",
			Workload:    "primes",
			New:         func() Instance { return coreInstance(rvcore.RV32E()) },
		},
		{
			Name:        "rv32i-bp",
			Description: "rv32i with a better branch predictor (btb + bht)",
			Workload:    "primes",
			New:         func() Instance { return coreInstance(rvcore.RV32IBP()) },
		},
		{
			Name:        "rv32i-mc",
			Description: "Dual-core variant of rv32i (predictor: pc + 4)",
			Workload:    "primes",
			New: func() Instance {
				mem := riscv.NewMemory()
				mem.LoadWords(0, workload.Primes(500))
				d, cores := rvcore.BuildMC("rv32i-mc", mem)
				d.MustCheck()
				return Instance{Design: d, Bench: rvcore.NewBench(cores...), Native: rvcore.NativeBindings(cores...)}
			},
		},
		{
			Name:        "idle",
			Description: "Idle-heavy producer/consumer chain (slow producer)",
			Meta:        true,
			Workload:    "one token per 64 cycles through 48 guarded stages",
			New: func() Instance {
				return Instance{Design: IdleBench(48, 6).MustCheck()}
			},
		},
	}
}

func coreInstance(cfg rvcore.Config) Instance {
	mem := riscv.NewMemory()
	mem.LoadWords(0, workload.Primes(500))
	d, core := rvcore.Build(cfg, mem)
	d.MustCheck()
	return Instance{Design: d, Bench: rvcore.NewBench(core), Native: rvcore.NativeBindings(core)}
}

// CollatzBench wraps the collatz design with a restart rule so timing runs
// never idle: when a trajectory converges, the next seed is injected.
func CollatzBench(seed uint64) *ast.Design {
	d := stm.Collatz(seed)
	d.Reg("seed", ast.Bits(32), seed+1)
	d.Rule("restart",
		ast.Guard(ast.Eq(ast.Rd0("done"), ast.C(1, 1))),
		ast.Wr1("x", ast.Rd0("seed")),
		ast.Wr0("seed", ast.Add(ast.Rd0("seed"), ast.C(32, 1))),
		ast.Wr0("done", ast.C(1, 0)),
	)
	return d
}

// FIRBench is the FIR design plus a self-driving input rule (a 32-bit LCG),
// so no per-cycle testbench traffic disturbs the measurement.
func FIRBench() *ast.Design {
	d := dsp.FIR([]uint32{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3})
	d.Rule("drive",
		ast.Wr0("in", ast.Add(
			ast.Mul(ast.Rd0("in"), ast.C(32, 1103515245)),
			ast.C(32, 12345))),
	)
	return d
}

// FFTBench is the FFT design plus a feedback rule perturbing the inputs
// from the previous outputs.
func FFTBench(n int) *ast.Design {
	d := dsp.FFT(n)
	var items []*ast.Node
	for i := 0; i < n; i++ {
		// Port-1 reads observe the butterfly outputs written this cycle.
		items = append(items,
			ast.Wr0(fmt.Sprintf("xr_%d", i),
				ast.Add(ast.Rd1(fmt.Sprintf("yr_%d", i)), ast.C(32, uint64(i*2+1)))),
			ast.Wr0(fmt.Sprintf("xi_%d", i),
				ast.Xor(ast.Rd1(fmt.Sprintf("yi_%d", i)), ast.C(32, uint64(i*17+3)))))
	}
	d.Rule("drive", items...)
	return d
}

// IdleBench builds the activity benchmark: a producer ticks a counter every
// cycle and releases a token into a chain of guarded consumer stages only
// once per 2^periodLog2 cycles, so at any moment almost every stage is
// stalled on its guard. Engines that re-execute every rule every cycle pay
// for all the stages; the activity scheduler parks them and pays only for
// the producer, the release guard, and the one or two stages the token is
// actually traversing. This is the regime the quiescence/skipping machinery
// targets — hardware spends most of its time waiting.
func IdleBench(stages, periodLog2 int) *ast.Design {
	d := ast.NewDesign(fmt.Sprintf("idle%d", stages))
	d.Reg("tick", ast.Bits(32), 0)
	for i := 0; i <= stages; i++ {
		d.Reg(fmt.Sprintf("tok%d", i), ast.Bits(1), 0)
	}
	for i := 0; i < stages; i++ {
		d.Reg(fmt.Sprintf("acc%d", i), ast.Bits(16), 0)
	}
	d.Reg("done", ast.Bits(32), 0)
	// release is scheduled before produce so its rd0 of tick observes the
	// committed counter instead of conflicting with this cycle's increment.
	d.Rule("release",
		ast.Guard(ast.Eq(ast.Slice(ast.Rd0("tick"), 0, periodLog2), ast.C(periodLog2, 0))),
		ast.Wr0("tok0", ast.C(1, 1)))
	d.Rule("produce", ast.Wr0("tick", ast.Add(ast.Rd0("tick"), ast.C(32, 1))))
	for i := 0; i < stages; i++ {
		tok, next, acc := fmt.Sprintf("tok%d", i), fmt.Sprintf("tok%d", i+1), fmt.Sprintf("acc%d", i)
		d.Rule(fmt.Sprintf("stage%d", i),
			ast.Guard(ast.Eq(ast.Rd0(tok), ast.C(1, 1))),
			ast.Wr0(tok, ast.C(1, 0)),
			ast.Wr0(next, ast.C(1, 1)),
			ast.Wr0(acc, ast.Add(ast.Rd0(acc), ast.C(16, 1))))
	}
	last := fmt.Sprintf("tok%d", stages)
	d.Rule("drain",
		ast.Guard(ast.Eq(ast.Rd0(last), ast.C(1, 1))),
		ast.Wr0(last, ast.C(1, 0)),
		ast.Wr0("done", ast.Add(ast.Rd0("done"), ast.C(32, 1))))
	return d
}

// StateStress builds the ablation stress design: a large register file
// (nregs registers) touched only sparsely by a handful of rules. Designs
// like this maximize the relative cost of the transaction machinery —
// clearing, copying, and committing logs over hundreds of registers — so
// they showcase what each §3.2–3.3 refinement buys. The paper's narrative
// ("models spend inordinate amounts of time checking and copying read-write
// sets, copying data between logs, and committing results") is about
// exactly this regime.
func StateStress(nregs, nrules int) *ast.Design {
	d := ast.NewDesign(fmt.Sprintf("stress%d", nregs))
	for i := 0; i < nregs; i++ {
		d.Reg(fmt.Sprintf("r%d", i), ast.Bits(32), uint64(i))
	}
	for r := 0; r < nrules; r++ {
		a := fmt.Sprintf("r%d", r*2%nregs)
		b := fmt.Sprintf("r%d", (r*2+1)%nregs)
		d.Rule(fmt.Sprintf("rule%d", r),
			ast.Let("va", ast.Rd0(a),
				ast.Wr0(a, ast.Add(ast.V("va"), ast.C(32, 1))),
				ast.Wr0(b, ast.Xor(ast.Rd0(b), ast.V("va"))),
			),
		)
	}
	return d
}

// ParallelStress builds the pstress benchmark: nrules completely
// independent heavy rules, each folding a long dependent operation chain
// (depth let-bound steps of multiply/xor/add) over its own private pair of
// registers, so its rule-conflict graph is edgeless. The catalogue keeps it
// because stored session recipes may name it.
func ParallelStress(nrules, depth int) *ast.Design {
	d := ast.NewDesign(fmt.Sprintf("pstress%d", nrules))
	for r := 0; r < nrules; r++ {
		d.Reg(fmt.Sprintf("a%d", r), ast.Bits(32), uint64(r*2+1))
		d.Reg(fmt.Sprintf("s%d", r), ast.Bits(32), 0)
	}
	for r := 0; r < nrules; r++ {
		a, s := fmt.Sprintf("a%d", r), fmt.Sprintf("s%d", r)
		body := func(k int) *ast.Node { return ast.V(fmt.Sprintf("v%d", k)) }
		// vK+1 = (vK * 2654435761) xor (vK + r'); deep sequential chain, no
		// common subexpressions for netopt to collapse.
		inner := []*ast.Node{
			ast.Wr0(a, body(depth)),
			ast.Wr0(s, ast.Add(ast.Rd0(s), ast.Xor(body(depth), body(0)))),
		}
		for k := depth; k >= 1; k-- {
			step := ast.Xor(
				ast.Mul(body(k-1), ast.C(32, 2654435761)),
				ast.Add(body(k-1), ast.C(32, uint64(r*31+k))))
			inner = []*ast.Node{ast.Let(fmt.Sprintf("v%d", k), step, inner...)}
		}
		d.Rule(fmt.Sprintf("mix%d", r),
			ast.Let("v0", ast.Rd0(a), inner...))
	}
	return d
}

// engines resolves literal registry names for the harness's grids.
func engines(names ...string) []engine.Spec {
	out := make([]engine.Spec, len(names))
	for i, n := range names {
		out[i] = engine.MustParse(n)
	}
	return out
}

// build instantiates an in-process engine over a benchmark instance. The
// harness passes no compile cache, so the native tier is refused here: it
// embeds the testbench in its binary, which the harness's cycle loop would
// then drive a second time.
func build(spec engine.Spec, inst Instance) (sim.Engine, error) {
	return spec.Build(inst.Design, nil, nil, engine.Instrument{})
}

// Measurement is one timing result.
type Measurement struct {
	Benchmark string
	Engine    string
	Cycles    uint64
	Elapsed   time.Duration
	// Digest hashes the engine's final architectural state; engines that ran
	// the same benchmark over the same window must agree on it.
	Digest uint64
}

// CPS returns simulated cycles per wall-clock second.
func (m Measurement) CPS() float64 {
	if m.Elapsed <= 0 {
		return 0
	}
	return float64(m.Cycles) / m.Elapsed.Seconds()
}

// Measure times one engine running one benchmark for the given number of
// cycles (plus a 10% warmup that is not counted).
func Measure(bm Benchmark, spec engine.Spec, cycles uint64) (Measurement, error) {
	inst := bm.New()
	e, err := build(spec, inst)
	if err != nil {
		return Measurement{}, fmt.Errorf("bench %s / %s: %w", bm.Name, spec, err)
	}
	tb := inst.Bench
	if tb == nil {
		tb = sim.NopBench{}
	}
	runCycles(e, tb, cycles/10)
	start := time.Now()
	runCycles(e, tb, cycles)
	elapsed := time.Since(start)
	return Measurement{Benchmark: bm.Name, Engine: spec.String(), Cycles: cycles,
		Elapsed: elapsed, Digest: sim.StateDigest(e)}, nil
}

// runCycles drives the engine unconditionally for n cycles (benchmarks
// never stop on testbench completion — a halted core keeps spinning).
func runCycles(e sim.Engine, tb sim.Testbench, n uint64) {
	for i := uint64(0); i < n; i++ {
		tb.BeforeCycle(e)
		e.Cycle()
		tb.AfterCycle(e)
	}
}

// HaltCycles runs a fresh instance under Cuttlesim until its bench halts
// (or budget runs out), returning the cycle count. Used for the Table 1
// "Cycles" column on processor workloads.
func HaltCycles(bm Benchmark, budget uint64) (uint64, bool) {
	inst := bm.New()
	e, err := build(engine.MustParse("cuttlesim(static,closure)"), inst)
	if err != nil {
		return 0, false
	}
	if inst.Bench == nil {
		return budget, false
	}
	n := sim.Run(e, inst.Bench, budget)
	return n, n < budget
}

// Verify runs every benchmark briefly on two engines and compares final
// architectural state; the harness refuses to time engines that disagree.
func Verify(bm Benchmark, a, b engine.Spec, cycles uint64) error {
	ia, ib := bm.New(), bm.New()
	ea, err := build(a, ia)
	if err != nil {
		return err
	}
	eb, err := build(b, ib)
	if err != nil {
		return err
	}
	tba, tbb := ia.Bench, ib.Bench
	if tba == nil {
		tba = sim.NopBench{}
	}
	if tbb == nil {
		tbb = sim.NopBench{}
	}
	runCycles(ea, tba, cycles)
	runCycles(eb, tbb, cycles)
	sa, sb := sim.StateOf(ea), sim.StateOf(eb)
	for i := range sa {
		if sa[i] != sb[i] {
			return fmt.Errorf("bench %s: %s and %s disagree on register %s (%v vs %v)",
				bm.Name, a, b, ia.Design.Registers[i].Name, sa[i], sb[i])
		}
	}
	return nil
}

package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"cuttlego/internal/bench"
	"cuttlego/internal/circuit"
	"cuttlego/internal/cuttlesim"
	"cuttlego/internal/interp"
	"cuttlego/internal/native"
	"cuttlego/internal/netopt"
	"cuttlego/internal/riscv"
	"cuttlego/internal/rtlsim"
	"cuttlego/internal/rvcore"
	"cuttlego/internal/sim"
	"cuttlego/internal/workload"
)

// The simulate workload is the paper's Figure 1 path: batch stepping in
// process, no daemon. Nine cells (three engines × three designs) advance in
// fixed windows, round-robin, so host drift hits every cell alike; each
// cell's rate is the median over its windows. All engines of one design
// run the same cycles, so their digests must agree when the phase ends.

var simDesigns = []string{"rv32i", "msi", "fft"}

var simEngines = []string{"cuttlesim", "rtlsim", "native"}

// simWindow is each design's window in cycles, sized so a round spends
// comparable time on every design and a 30 s phase runs about a hundred
// rounds.
var simWindow = map[string]uint64{"rv32i": 8192, "msi": 8192, "fft": 16384}

// simSetupEvery is how many rounds pass between spare set-ups: one takes
// about 0.4 of a round, so a 30 s phase sets up about thirty times.
const simSetupEvery = 4

// simInstance builds a fresh instance of a simulate design. rv32i runs the
// seeded primes program; msi and fft are the catalogue designs.
func simInstance(design string, in simInputs) (bench.Instance, error) {
	if design == "rv32i" {
		mem := riscv.NewMemory()
		mem.LoadWords(0, workload.Primes(in.PrimesLimit))
		d, core := rvcore.Build(rvcore.RV32I(), mem)
		if err := d.Check(); err != nil {
			return bench.Instance{}, err
		}
		return bench.Instance{Design: d, Bench: rvcore.NewBench(core), Native: rvcore.NativeBindings(core)}, nil
	}
	bm, ok := bench.Lookup(design)
	if !ok {
		return bench.Instance{}, fmt.Errorf("no catalogue design %q", design)
	}
	return bm.New(), nil
}

// simEngine is one engine over its own instance.
type simEngine struct {
	kind string
	inst bench.Instance
	eng  sim.Engine
}

// advance runs n cycles: batched Advance on the self-driving native tier,
// the instance's testbench otherwise. It returns the cycles run.
func (e *simEngine) advance(n uint64) uint64 {
	if e.kind == "native" {
		return e.eng.(*native.Engine).Advance(n)
	}
	tb := e.inst.Bench
	if tb == nil {
		tb = sim.NopBench{}
	}
	return sim.Run(e.eng, tb, n)
}

func (e *simEngine) close() {
	if c, ok := e.eng.(interface{ Close() error }); ok {
		c.Close()
	}
}

func closeAll(cells map[string]*simEngine) {
	for _, e := range cells {
		e.close()
	}
}

// simSetupTimes are one set-up's phase times, summed over the designs.
type simSetupTimes struct {
	build, cuttlesim, circuit, netopt, rtlsim, nativeBuild, spawn, total time.Duration
}

// simBuild constructs one engine of one design and adds its phase times.
func simBuild(cfg *config, nc *native.Cache, design, kind string, in simInputs, st *simSetupTimes) (*simEngine, *netopt.Result, error) {
	tr := cfg.tr
	var (
		inst bench.Instance
		err  error
	)
	st.build += tr.timed("lang.build", 0, 0, func() { inst, err = simInstance(design, in) })
	if err != nil {
		return nil, nil, err
	}
	e := &simEngine{kind: kind, inst: inst}
	switch kind {
	case "cuttlesim":
		st.cuttlesim += tr.timed("cuttlesim.New", 0, 0, func() {
			e.eng, err = cuttlesim.New(inst.Design, cuttlesim.Options{Level: cuttlesim.LStatic, Backend: cuttlesim.Closure})
		})
		return e, nil, err
	case "rtlsim":
		var ckt *circuit.Circuit
		st.circuit += tr.timed("circuit.Compile", 0, 0, func() { ckt, err = circuit.Compile(inst.Design, circuit.StyleKoika) })
		if err != nil {
			return nil, nil, err
		}
		var res netopt.Result
		st.netopt += tr.timed("netopt.Optimize", 0, 0, func() { res = netopt.Optimize(ckt, netopt.All()) })
		st.rtlsim += tr.timed("rtlsim.New", 0, 0, func() {
			e.eng, err = rtlsim.New(res.Circuit, rtlsim.Options{Backend: rtlsim.Fused})
		})
		return e, &res, err
	default:
		var br native.BuildResult
		st.nativeBuild += tr.timed("native.Cache.Build", 0, 0, func() { br, err = nc.Build(inst.Design, inst.Native) })
		if err != nil {
			return nil, nil, err
		}
		st.spawn += tr.timed("native.Launch", 0, 0, func() { e.eng, err = native.Launch(inst.Design, br) })
		return e, nil, err
	}
}

func runSimulate(ctx context.Context, cfg *config) error {
	rep, tr := cfg.rep, cfg.tr
	in := genSimInputs(cfg.seed)

	// Untimed pre-phase: the cold compile of every native binary, then the
	// reference check of every engine against the interpreter.
	nc, err := native.OpenCache(filepath.Join(cfg.tmp, "native-cache"), native.CacheOptions{})
	if err != nil {
		return err
	}
	var cold time.Duration
	for _, d := range simDesigns {
		inst, err := simInstance(d, in)
		if err != nil {
			return err
		}
		cold += tr.timed("native.Cache.Build(cold)", 0, 0, func() { _, err = nc.Build(inst.Design, inst.Native) })
		if err != nil {
			return err
		}
	}
	rep.set("native.compile_cold_s", cold.Seconds())
	if err := simReferenceCheck(cfg, nc, in); err != nil {
		return err
	}

	// Set-up: the first one builds the engines the timed phase runs. Every
	// simSetupEvery rounds the timed phase sets up a spare copy and closes
	// it, so setup_s, the median, meets the same host as the cells.
	var setups []simSetupTimes
	setup := func() (map[string]*simEngine, error) {
		cells := make(map[string]*simEngine)
		var st simSetupTimes
		runtime.GC() // each set-up starts from a collected heap
		start := time.Now()
		var nets [2]int
		for _, d := range simDesigns {
			for _, k := range simEngines {
				e, res, err := simBuild(cfg, nc, d, k, in, &st)
				if err != nil {
					closeAll(cells)
					return nil, fmt.Errorf("set up %s on %s: %w", d, k, err)
				}
				if res != nil {
					nets[0] += res.Before.Nets
					nets[1] += res.After.Nets
				}
				cells[d+"/"+k] = e
			}
		}
		st.total = time.Since(start)
		setups = append(setups, st)
		rep.set("netopt.nets_before", float64(nets[0]))
		rep.set("netopt.nets_after", float64(nets[1]))
		return cells, nil
	}
	cells, err := setup()
	if err != nil {
		return err
	}
	defer closeAll(cells)

	// The rv32i program must not halt inside the timed phase: its retired
	// instruction count bounds the cycles to halt from below (one
	// instruction per cycle at best), so rv32i cells stop short of it.
	golden := riscv.NewMemory()
	golden.LoadWords(0, workload.Primes(in.PrimesLimit))
	tohost, instret, err := rvcore.GoldenRun(golden, 1<<32)
	rep.check(err == nil && tohost == workload.PrimesExpected(in.PrimesLimit),
		"rv32i golden model: tohost %d, want %d (%v)", tohost, workload.PrimesExpected(in.PrimesLimit), err)

	// Timed phase.
	timed := make(map[string]*cell)
	var order []*cell
	for _, d := range simDesigns {
		for _, k := range simEngines {
			c := &cell{cycles: simWindow[d]}
			timed[d+"/"+k] = c
			order = append(order, c)
		}
	}
	var traced, untraced []float64
	ran := make(map[string]uint64)
	gc0 := gcPause()
	more := cfg.budget.more()
	for round := 0; more(round); round++ {
		op := uint64(round)
		rt := tr.start("round", 0, op)
		for _, d := range simDesigns {
			w := simWindow[d]
			if d == "rv32i" && ran[d]+w > instret {
				continue
			}
			for _, k := range simEngines {
				e := cells[d+"/"+k]
				var n uint64
				dur := tr.timed(k+".advance", rt.id, op, func() { n = e.advance(w) })
				if rep.check(n == w, "%s on %s ran %d of %d cycles", d, k, n, w) {
					timed[d+"/"+k].add(dur)
				}
			}
			ran[d] += w
		}
		if d := rt.stop(); tr.traces(op) {
			traced = append(traced, ms(d))
		} else {
			untraced = append(untraced, ms(d))
		}
		if round%simSetupEvery == 0 {
			spare, err := setup()
			if err != nil {
				return err
			}
			closeAll(spare)
		}
	}
	rep.set("gc.pause_ms", ms(gcPause()-gc0))
	rep.set("live_heap_mb", liveHeapMB())
	setRate(rep, order)
	pick := func(f func(simSetupTimes) time.Duration) float64 {
		xs := make([]float64, len(setups))
		for i, st := range setups {
			xs[i] = ms(f(st))
		}
		return median(xs)
	}
	rep.set("setup_s", pick(func(s simSetupTimes) time.Duration { return s.total })/1e3)
	rep.set("lang.build_ms", pick(func(s simSetupTimes) time.Duration { return s.build }))
	rep.set("cuttlesim.compile_ms", pick(func(s simSetupTimes) time.Duration { return s.cuttlesim }))
	rep.set("circuit.compile_ms", pick(func(s simSetupTimes) time.Duration { return s.circuit }))
	rep.set("netopt.ms", pick(func(s simSetupTimes) time.Duration { return s.netopt }))
	rep.set("rtlsim.build_ms", pick(func(s simSetupTimes) time.Duration { return s.rtlsim }))
	rep.set("native.build_warm_ms", pick(func(s simSetupTimes) time.Duration { return s.nativeBuild }))
	rep.set("native.spawn_ms", pick(func(s simSetupTimes) time.Duration { return s.spawn }))
	if len(traced) > 0 && len(untraced) > 0 {
		rep.set("trace.overhead_pct", 100*(median(traced)/median(untraced)-1))
	}
	for _, k := range simEngines {
		var rates []float64
		for _, d := range simDesigns {
			r := timed[d+"/"+k].cps()
			rep.set(k+"."+d+".cps", r)
			rates = append(rates, r)
		}
		rep.set(k+".geomean_cps", geomean(rates))
	}
	if c := timed["msi/cuttlesim"]; c.cps() > 0 {
		rep.set("cuttlesim.cycle_us", 1e6/c.cps())
	}

	// Checks: the engines of each design agree at the end of the phase, the
	// rv32i program had not halted, and it halts with the expected result.
	for _, d := range simDesigns {
		want := sim.StateDigest(cells[d+"/cuttlesim"].eng)
		for _, k := range simEngines[1:] {
			got := sim.StateDigest(cells[d+"/"+k].eng)
			rep.check(got == want, "%s: %s digest %016x differs from cuttlesim %016x after %d cycles", d, k, got, want, ran[d])
		}
	}
	for _, k := range []string{"cuttlesim", "rtlsim"} {
		b := cells["rv32i/"+k].inst.Bench.(*rvcore.Bench)
		rep.check(!b.Done(), "rv32i on %s halted inside the timed window", k)
	}
	simHaltCheck(cfg, cells["rv32i/native"], in, instret)
	st := nc.StatsSnapshot()
	rep.set("native.compiles", float64(st.Builds))
	rep.set("native.cache_hits", float64(st.Hits))
	return nil
}

// simHaltCheck runs the native rv32i engine on until the program stores its
// result to tohost and checks the value against workload's expectation.
func simHaltCheck(cfg *config, e *simEngine, in simInputs, instret uint64) {
	core := e.inst.Bench.(*rvcore.Bench).Cores[0]
	want := workload.PrimesExpected(in.PrimesLimit)
	const step = 1 << 20
	for e.eng.CycleCount() < 4*instret {
		e.advance(step)
		if uint32(e.eng.Reg(core.DmAddr).Val) == riscv.TohostAddr {
			got := uint32(e.eng.Reg(core.DmData).Val)
			cfg.rep.check(got == want, "rv32i halted with tohost %d, want %d", got, want)
			return
		}
	}
	cfg.rep.check(false, "rv32i did not halt within %d cycles", 4*instret)
}

// simReferenceCheck runs fresh instances of every engine for the seeded
// prefix and compares each against the reference interpreter. The
// cuttlesim instance profiles its rules, giving the deterministic commit
// and attempt counts.
func simReferenceCheck(cfg *config, nc *native.Cache, in simInputs) error {
	rep := cfg.rep
	var commits, attempts uint64
	for _, d := range simDesigns {
		ref, err := simInstance(d, in)
		if err != nil {
			return err
		}
		ie, err := interp.New(ref.Design)
		if err != nil {
			return err
		}
		ieng := &simEngine{kind: "interp", inst: ref, eng: ie}
		ieng.advance(in.Prefix)
		want := sim.StateDigest(ie)

		prof, err := simInstance(d, in)
		if err != nil {
			return err
		}
		cs, err := cuttlesim.New(prof.Design, cuttlesim.Options{Level: cuttlesim.LStatic, Backend: cuttlesim.Closure, Profile: true})
		if err != nil {
			return err
		}
		engines := []*simEngine{{kind: "cuttlesim", inst: prof, eng: cs}}
		for _, k := range simEngines[1:] {
			var st simSetupTimes
			e, _, err := simBuild(cfg, nc, d, k, in, &st)
			if err != nil {
				return err
			}
			engines = append(engines, e)
		}
		for _, e := range engines {
			n := e.advance(in.Prefix)
			got := sim.StateDigest(e.eng)
			rep.check(n == in.Prefix && got == want,
				"%s: %s digest %016x after %d cycles, interp %016x after %d", d, e.kind, got, n, want, in.Prefix)
			e.close()
		}
		for _, s := range cs.RuleStats() {
			commits += s.Commits
			attempts += s.Attempts
		}
	}
	rep.set("cuttlesim.commits", float64(commits))
	rep.set("cuttlesim.attempts", float64(attempts))
	if attempts > 0 {
		rep.set("cuttlesim.commit_ratio", float64(commits)/float64(attempts))
	}
	return nil
}

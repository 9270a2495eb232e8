// Benchmarks regenerating the paper's evaluation with the standard Go
// tooling: one benchmark family per table/figure. Each op is one simulated
// cycle, so ns/op is the inverse of the cycles-per-second the paper plots.
//
//	go test -bench=Fig1 -benchmem .
//
// BenchmarkFig1: Cuttlesim vs the circuit-level simulator (Figure 1).
// BenchmarkFig2: dynamic (koika) vs static (bluespec) netlists (Figure 2).
// BenchmarkFig3: closure vs bytecode engines (Figure 3's compiler sweep).
// BenchmarkAblation: the §3.2–3.3 optimization ladder on rv32i.
// BenchmarkTable1Artifacts: artifact generation cost for Table 1's counts.
package cuttlego_test

import (
	"fmt"
	"testing"

	"cuttlego/internal/bench"
	"cuttlego/internal/circuit"
	"cuttlego/internal/cppgen"
	"cuttlego/internal/cuttlesim"
	"cuttlego/internal/engine"
	"cuttlego/internal/sim"
	"cuttlego/internal/verilog"
)

// runEngine drives one freshly built benchmark instance for b.N cycles.
func runEngine(b *testing.B, bm bench.Benchmark, eng engine.Spec) {
	b.Helper()
	inst := bm.New()
	e, err := eng.Build(inst.Design, nil, nil, engine.Instrument{})
	if err != nil {
		b.Fatal(err)
	}
	tb := inst.Bench
	if tb == nil {
		tb = sim.NopBench{}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.BeforeCycle(e)
		e.Cycle()
		tb.AfterCycle(e)
	}
}

func BenchmarkFig1(b *testing.B) {
	engines := []engine.Spec{
		engine.MustParse("cuttlesim(static,closure)"),
		engine.MustParse("rtlsim(koika,closure)"),
		engine.MustParse("rtlsim(koika,fused,opt)"),
	}
	for _, bm := range bench.Suite() {
		for _, eng := range engines {
			b.Run(fmt.Sprintf("%s/%s", bm.Name, eng), func(b *testing.B) {
				runEngine(b, bm, eng)
			})
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	for _, bm := range bench.Suite() {
		free, err := circuit.StaticallyConflictFree(bm.New().Design)
		if err != nil {
			b.Fatal(err)
		}
		if !free {
			continue // static scheduling is not equivalent for this design
		}
		for _, style := range []circuit.Style{circuit.StyleKoika, circuit.StyleBluespec} {
			b.Run(fmt.Sprintf("%s/%s", bm.Name, style), func(b *testing.B) {
				runEngine(b, bm, engine.MustParse(fmt.Sprintf("rtlsim(%v,closure)", style)))
			})
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	engines := []engine.Spec{
		engine.MustParse("cuttlesim(static,closure)"),
		engine.MustParse("cuttlesim(static,bytecode)"),
		engine.MustParse("rtlsim(koika,closure)"),
		engine.MustParse("rtlsim(koika,switch)"),
		engine.MustParse("rtlsim(koika,fused)"),
		engine.MustParse("rtlsim(koika,fused,opt)"),
	}
	for _, name := range []string{"rv32i", "fir"} {
		bm, ok := bench.Lookup(name)
		if !ok {
			b.Fatal("missing benchmark", name)
		}
		for _, eng := range engines {
			b.Run(fmt.Sprintf("%s/%s", bm.Name, eng), func(b *testing.B) {
				runEngine(b, bm, eng)
			})
		}
	}
}

func BenchmarkAblation(b *testing.B) {
	bm, _ := bench.Lookup("rv32i")
	for _, level := range cuttlesim.Levels() {
		b.Run(level.String(), func(b *testing.B) {
			runEngine(b, bm, engine.MustParse(fmt.Sprintf("cuttlesim(%v,closure)", level)))
		})
	}
}

func BenchmarkTable1Artifacts(b *testing.B) {
	for _, bm := range bench.Suite() {
		b.Run(bm.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				inst := bm.New()
				if _, err := cppgen.LineCount(inst.Design); err != nil {
					b.Fatal(err)
				}
				ckt, err := circuit.Compile(inst.Design, circuit.StyleKoika)
				if err != nil {
					b.Fatal(err)
				}
				_ = verilog.LineCount(ckt)
			}
		})
	}
}

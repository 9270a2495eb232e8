package sim_test

import (
	"testing"

	"cuttlego/internal/bench"
	"cuttlego/internal/bits"
	"cuttlego/internal/difftest"
	"cuttlego/internal/engine"
	"cuttlego/internal/native"
	"cuttlego/internal/sim"
)

// checkRow demands ReadRow agree with Reg on every register, and ReadFired
// with RuleFired on every rule.
func checkRow(t *testing.T, what string, e sim.Engine) {
	t.Helper()
	d := e.Design()
	row := make([]uint64, len(d.Registers))
	e.(sim.RowReader).ReadRow(row)
	for i, r := range d.Registers {
		if want := e.Reg(r.Name).Val; row[i] != want {
			t.Fatalf("%s at cycle %d: ReadRow[%d] (%s) = %#x, Reg = %#x", what, e.CycleCount(), i, r.Name, row[i], want)
		}
	}
	fired := make([]uint64, sim.FiredWords(len(d.Rules)))
	e.(sim.RowReader).ReadFired(fired)
	for i, r := range d.Rules {
		if got, want := fired[i/64]>>(i%64)&1 == 1, e.RuleFired(r.Name); got != want {
			t.Fatalf("%s at cycle %d: ReadFired bit %d (%s) = %v, RuleFired = %v", what, e.CycleCount(), i, r.Name, got, want)
		}
	}
}

// exerciseRow steps e, pokes one register in every few cycles (flipping
// its low bit), and checks the row after each step and each poke.
func exerciseRow(t *testing.T, what string, e sim.Engine, tb sim.Testbench) {
	t.Helper()
	if tb == nil {
		tb = sim.NopBench{}
	}
	d := e.Design()
	checkRow(t, what, e)
	for c := 0; c < 40; c++ {
		tb.BeforeCycle(e)
		e.Cycle()
		tb.AfterCycle(e)
		checkRow(t, what, e)
		if c%4 != 0 {
			continue
		}
		r := d.Registers[c%len(d.Registers)]
		if w := r.Type.BitWidth(); w > 0 {
			e.SetReg(r.Name, bits.New(w, e.Reg(r.Name).Val^1))
			checkRow(t, what+" after SetReg "+r.Name, e)
		}
	}
}

// TestRowReaderMatchesReg holds every in-process engine, the reference
// interpreter and the native tier to the RowReader contract: ReadRow fills
// exactly what Reg returns, register by register, and ReadFired what
// RuleFired reports, rule by rule, after cycles and after SetReg.
func TestRowReaderMatchesReg(t *testing.T) {
	specs := append(engine.InProcess(), engine.MustParse("interp"))
	var insts []bench.Instance
	for _, name := range []string{"collatz", "msi"} {
		bm, _ := bench.Lookup(name)
		insts = append(insts, bm.New())
	}
	for seed := int64(1); seed <= 6; seed++ { // zero-width and 64-bit registers
		d := difftest.Generate(seed)
		if err := d.Check(); err != nil {
			t.Fatalf("difftest.Generate(%d): %v", seed, err)
		}
		insts = append(insts, bench.Instance{Design: d})
	}
	for _, spec := range specs {
		for _, inst := range insts {
			e, err := spec.Build(inst.Design, nil, nil, engine.Instrument{})
			if err != nil {
				t.Fatalf("%s on %s: %v", spec, inst.Design.Name, err)
			}
			exerciseRow(t, spec.String()+" on "+inst.Design.Name, e, inst.Bench)
		}
	}
}

// TestRowReaderNative checks the native tier's mirror-served rows.
func TestRowReaderNative(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles native binaries")
	}
	c, err := native.OpenCache(t.TempDir(), native.CacheOptions{})
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}
	for _, name := range []string{"collatz", "msi"} {
		bm, _ := bench.Lookup(name)
		inst := bm.New()
		e, err := c.Engine(inst.Design, inst.Native)
		if err != nil {
			t.Fatalf("native %s: %v", name, err)
		}
		exerciseRow(t, "native on "+name, e, inst.Bench)
		if err := e.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

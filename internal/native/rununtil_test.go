package native_test

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"cuttlego/internal/ast"
	"cuttlego/internal/bench"
	"cuttlego/internal/debug"
	"cuttlego/internal/difftest"
	"cuttlego/internal/interp"
	"cuttlego/internal/native"
	"cuttlego/internal/sim"
)

// rowLog collects a Watch's rows with their cycle numbers.
type rowLog struct {
	cycles []uint64
	rows   [][]uint64
}

func (l *rowLog) onRow(cycle uint64, row []uint64) error {
	l.cycles = append(l.cycles, cycle)
	l.rows = append(l.rows, slices.Clone(row))
	return nil
}

// TestLockstepRunUntil runs zoo designs under breakpoint conditions on the
// native tier's run-until batches and on sim.StepUntil over the reference
// interpreter, and demands the same cycles run, the same condition hit,
// the same rows, fired flags and state after every batch. The conditions
// cover generated ones and one that never holds, so batches also run to
// the end, through activity-tier fixed points sent as repeat counts.
func TestLockstepRunUntil(t *testing.T) {
	quiesce := ast.NewDesign("quiesce")
	quiesce.Reg("cnt", ast.Bits(8), 0)
	quiesce.Rule("count",
		ast.Guard(ast.Ltu(ast.Rd0("cnt"), ast.C(8, 10))),
		ast.Wr0("cnt", ast.Add(ast.Rd0("cnt"), ast.C(8, 1))))
	designs := []*ast.Design{
		bench.CollatzBench(27).MustCheck(),
		bench.FFTBench(8).MustCheck(),
		bench.IdleBench(8, 3).MustCheck(),
		quiesce.MustCheck(),
	}
	c := openCache(t, native.CacheOptions{})
	ctx := context.Background()
	hits := 0
	for _, d := range designs {
		t.Run(d.Name, func(t *testing.T) {
			var conds []sim.Cond
			for seed := int64(1); seed <= 3; seed++ {
				p, err := debug.CompileExpr(d, difftest.GenerateCondition(d, seed))
				if err != nil {
					t.Fatalf("CompileExpr: %v", err)
				}
				conds = append(conds, p)
			}
			never, err := debug.CompileExpr(d, ast.Eq(ast.C(1, 0), ast.C(1, 1)))
			if err != nil {
				t.Fatalf("CompileExpr: %v", err)
			}
			ref, err := interp.New(d)
			if err != nil {
				t.Fatalf("interp: %v", err)
			}
			eng := launch(t, c, d, nil)
			var refLog, natLog rowLog
			for b, total := 0, uint64(0); total < 1500; b++ {
				// Rotate through the condition sets, batch sizes and
				// recording on and off.
				var w1, w2 sim.Watch
				switch b % 3 {
				case 0:
					w1.Conds, w2.Conds = conds, conds
				case 1:
					w1.Conds, w2.Conds = []sim.Cond{never}, []sim.Cond{never}
				}
				if b%4 != 3 {
					w1.OnRow, w2.OnRow = refLog.onRow, natLog.onRow
				}
				n := []uint64{1, 7, 64, 300}[b%4]
				ran1, hit1, err1 := sim.StepUntil(ctx, ref, nil, n, &w1)
				ran2, hit2, err2 := eng.RunUntil(ctx, n, &w2)
				if err1 != nil || err2 != nil {
					t.Fatalf("batch %d: interp err %v, native err %v", b, err1, err2)
				}
				if ran1 != ran2 || hit1 != hit2 {
					t.Fatalf("batch %d of %d cycles: interp ran %d hit %d, native ran %d hit %d", b, n, ran1, hit1, ran2, hit2)
				}
				total += ran1
				if hit1 >= 0 {
					hits++
				}
				if a, b := sim.StateDigest(ref), sim.StateDigest(eng); a != b || ref.CycleCount() != eng.CycleCount() {
					t.Fatalf("cycle %d: interp digest %016x, native %016x (cycle %d)", ref.CycleCount(), a, b, eng.CycleCount())
				}
				for _, r := range d.Rules {
					if ref.RuleFired(r.Name) != eng.RuleFired(r.Name) {
						t.Fatalf("cycle %d: rule %s fired=%v under interp, %v under native", ref.CycleCount(), r.Name, ref.RuleFired(r.Name), eng.RuleFired(r.Name))
					}
				}
			}
			if !slices.Equal(refLog.cycles, natLog.cycles) {
				t.Fatalf("recorded cycles differ: interp %d rows, native %d rows", len(refLog.cycles), len(natLog.cycles))
			}
			for i := range refLog.rows {
				if !slices.Equal(refLog.rows[i], natLog.rows[i]) {
					t.Fatalf("row of cycle %d differs: interp %v, native %v", refLog.cycles[i], refLog.rows[i], natLog.rows[i])
				}
			}
		})
	}
	if hits == 0 {
		t.Fatalf("no batch stopped at a condition")
	}
}

// TestRunUntilSnapshotFromRow checks that snapshots built from the
// register mirror, with no round trip, marshal byte-identically to the
// reference interpreter's at the same cycle over an msi run: at launch,
// after Advance, after run-until batches stopped by a breakpoint or run to
// the end, after a poke and after a restore.
func TestRunUntilSnapshotFromRow(t *testing.T) {
	bm, _ := bench.Lookup("msi")
	inst := bm.New()
	d := inst.Design
	ref, err := interp.New(d)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	c := openCache(t, native.CacheOptions{})
	eng := launch(t, c, d, inst.Native)
	ctx := context.Background()
	check := func(what string) {
		t.Helper()
		snap, err := eng.TakeSnapshot()
		if err != nil {
			t.Fatalf("%s: TakeSnapshot: %v", what, err)
		}
		got, err := snap.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: MarshalBinary: %v", what, err)
		}
		want, err := ref.Snapshot().MarshalBinary()
		if err != nil {
			t.Fatalf("%s: interp MarshalBinary: %v", what, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: snapshot built from the mirror at cycle %d differs from interp's at cycle %d", what, snap.Cycle, ref.CycleCount())
		}
	}
	check("launch")
	eng.Advance(100)
	sim.Run(ref, nil, 100)
	check("Advance")

	p, err := debug.Compile(d, "p_state.rd0() == pstate::ConfirmDowngrades")
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	hits := 0
	for b := 0; b < 20; b++ {
		// Odd batches run to the end; even ones stop at the breakpoint.
		var w1, w2 sim.Watch
		if b%2 == 0 {
			w1.Conds, w2.Conds = []sim.Cond{p}, []sim.Cond{p}
		}
		ran1, hit1, err1 := sim.RunUntil(ctx, ref, nil, 64, &w1)
		ran2, hit2, err2 := eng.RunUntil(ctx, 64, &w2)
		if err1 != nil || err2 != nil || ran1 != ran2 || hit1 != hit2 {
			t.Fatalf("batch %d: interp ran %d hit %d err %v, native ran %d hit %d err %v", b, ran1, hit1, err1, ran2, hit2, err2)
		}
		if hit1 >= 0 {
			hits++
		}
		check("RunUntil")
	}
	if hits == 0 {
		t.Fatalf("the breakpoint stopped no batch")
	}

	v := ref.Reg("c0_ops_done").Not()
	ref.SetReg("c0_ops_done", v)
	if err := eng.Poke(d.RegIndex("c0_ops_done"), v.Val); err != nil {
		t.Fatalf("Poke: %v", err)
	}
	check("Poke")

	snap := ref.Snapshot()
	eng.Advance(50)
	sim.Run(ref, nil, 50)
	ref.Restore(snap)
	if err := eng.RestoreSnapshot(snap); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	check("RestoreSnapshot")
	eng.Advance(30)
	sim.Run(ref, nil, 30)
	check("Advance after RestoreSnapshot")
}

// TestRunUntilBatchAllocs checks that once its buffers have grown, a
// recording run-until batch under a breakpoint allocates nothing on the
// host side.
func TestRunUntilBatchAllocs(t *testing.T) {
	bm, _ := bench.Lookup("msi")
	inst := bm.New()
	c := openCache(t, native.CacheOptions{})
	eng := launch(t, c, inst.Design, inst.Native)
	p, err := debug.Compile(inst.Design, "c0_ops_done.rd0() == 32'xffffffff")
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	var rows uint64
	w := &sim.Watch{
		Conds: []sim.Cond{p},
		OnRow: func(uint64, []uint64) error { rows++; return nil },
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(20, func() {
		if ran, hit, err := eng.RunUntil(ctx, 64, w); err != nil || ran != 64 || hit != -1 {
			t.Fatalf("RunUntil: ran %d hit %d err %v", ran, hit, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a 64-cycle batch allocates %.1f times", allocs)
	}
	if rows != 21*64 {
		t.Fatalf("recorded %d rows, want %d", rows, 21*64)
	}
}

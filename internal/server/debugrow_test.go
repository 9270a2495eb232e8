package server

import (
	"context"
	"path/filepath"
	"testing"

	"cuttlego/internal/faultinj"
	"cuttlego/internal/sim"
)

// TestPredicateRowAllocatesNothing: once a session has breakpoints armed
// and is recording, the per-cycle work stepping adds — one row fill from
// the engine, fired-rule words included, and each compiled predicate over
// it — allocates nothing.
func TestPredicateRowAllocatesNothing(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	sess, err := newSession("s", CreateRequest{Catalog: "msi", Level: "static", Backend: "closure"}, srv.env())
	if err != nil {
		t.Fatalf("newSession: %v", err)
	}
	if err := sess.setBreak(BreakRequest{Cond: "c0_ops_done.rd0() == 32'd9 | p_state.rd1() == pstate::ConfirmDowngrades"}); err != nil {
		t.Fatalf("setBreak: %v", err)
	}
	if err := sess.setBreak(BreakRequest{Cond: "fired(" + sess.design().Rules[3].Name + ") & c0_ops_done.rd0() == 32'd1000"}); err != nil {
		t.Fatalf("setBreak: %v", err)
	}
	if err := sess.record(true, filepath.Join(t.TempDir(), "trace"), faultinj.OS()); err != nil {
		t.Fatalf("record: %v", err)
	}
	if _, _, err := sess.step(context.Background(), 100); err != nil {
		t.Fatalf("step: %v", err)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	var hits int
	rr := sess.eng.(sim.RowReader)
	row := make([]uint64, sim.RowLen(sess.design()))
	allocs := testing.AllocsPerRun(200, func() {
		sess.eng.Cycle()
		rr.ReadRow(row[:sess.nRegs])
		rr.ReadFired(row[sess.nRegs:])
		for _, c := range sess.conds {
			if c.pred.Eval(row) {
				hits++
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("row fill and predicate check allocate %.1f times per cycle, want 0", allocs)
	}
}

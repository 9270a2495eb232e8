package tracedb

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"cuttlego/internal/bench"
	"cuttlego/internal/cuttlesim"
	"cuttlego/internal/faultinj"
	"cuttlego/internal/sim"
	"cuttlego/internal/vcd"
)

// newEngine builds the daemon's default engine for a catalogue design.
func newEngine(t testing.TB, catalog string) (sim.Engine, sim.Testbench) {
	t.Helper()
	bm, ok := bench.Lookup(catalog)
	if !ok {
		t.Fatalf("no catalogue design %q", catalog)
	}
	inst := bm.New()
	eng, err := cuttlesim.New(inst.Design, cuttlesim.Options{
		Level: cuttlesim.LStatic, Backend: cuttlesim.Closure, Profile: true,
	})
	if err != nil {
		t.Fatalf("cuttlesim.New: %v", err)
	}
	tb := inst.Bench
	if tb == nil {
		tb = sim.NopBench{}
	}
	return eng, tb
}

// sampleRow reads the engine's registers in declaration order.
func sampleRow(e sim.Engine, row []uint64) []uint64 {
	d := e.Design()
	if row == nil {
		row = make([]uint64, len(d.Registers))
	}
	for i, r := range d.Registers {
		row[i] = e.Reg(r.Name).Val
	}
	return row
}

// recordRun appends the engine's current state, then steps n cycles under
// the testbench appending after each — the same convention live sessions
// use (row c = beginning-of-cycle state at CycleCount() == c).
func recordRun(t *testing.T, rec *Recorder, e sim.Engine, tb sim.Testbench, n uint64) {
	t.Helper()
	if tb == nil {
		tb = sim.NopBench{}
	}
	if err := rec.Append(e.CycleCount(), sampleRow(e, nil)); err != nil {
		t.Fatalf("append cycle %d: %v", e.CycleCount(), err)
	}
	row := make([]uint64, len(e.Design().Registers))
	for i := uint64(0); i < n; i++ {
		tb.BeforeCycle(e)
		e.Cycle()
		cont := tb.AfterCycle(e)
		if err := rec.Append(e.CycleCount(), sampleRow(e, row)); err != nil {
			t.Fatalf("append cycle %d: %v", e.CycleCount(), err)
		}
		if !cont {
			break
		}
	}
}

// recordCatalog records n cycles of a catalogue design into a fresh
// recording and returns its directory.
func recordCatalog(t *testing.T, catalog string, n, chunk uint64) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "trace")
	eng, tb := newEngine(t, catalog)
	rec, err := Create(dir, faultinj.OS(), MetaFor(eng.Design(), chunk))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	recordRun(t, rec, eng, tb, n)
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return dir
}

func TestRecordAndReadBack(t *testing.T) {
	eng, tb := newEngine(t, "collatz")
	dir := filepath.Join(t.TempDir(), "trace")
	rec, err := Create(dir, faultinj.OS(), MetaFor(eng.Design(), 64))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// Remember every row as ground truth while recording it.
	var want [][]uint64
	want = append(want, sampleRow(eng, nil))
	if err := rec.Append(0, want[0]); err != nil {
		t.Fatalf("append: %v", err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		tb.BeforeCycle(eng)
		eng.Cycle()
		tb.AfterCycle(eng)
		row := sampleRow(eng, nil)
		want = append(want, row)
		if err := rec.Append(eng.CycleCount(), row); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := Open(dir, faultinj.OS())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	first, last, ok := r.Bounds()
	if !ok || first != 0 || last != n {
		t.Fatalf("Bounds = %d..%d/%v, want 0..%d", first, last, ok, n)
	}
	for cyc := uint64(0); cyc <= n; cyc++ {
		row, err := r.Row(cyc)
		if err != nil {
			t.Fatalf("Row(%d): %v", cyc, err)
		}
		for s := range row {
			if row[s] != want[cyc][s] {
				t.Fatalf("cycle %d signal %d = %d, want %d", cyc, s, row[s], want[cyc][s])
			}
		}
	}
}

func TestAppendRejectsGaps(t *testing.T) {
	eng, _ := newEngine(t, "collatz")
	rec, err := Create(filepath.Join(t.TempDir(), "trace"), faultinj.OS(), MetaFor(eng.Design(), 64))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	row := sampleRow(eng, nil)
	if err := rec.Append(10, row); err != nil {
		t.Fatalf("first append may start anywhere: %v", err)
	}
	if err := rec.Append(12, row); err == nil {
		t.Fatalf("gap append succeeded")
	}
	if err := rec.Append(11, row); err != nil {
		t.Fatalf("contiguous append after rejected gap: %v", err)
	}
}

func TestFlushMakesTailVisible(t *testing.T) {
	eng, tb := newEngine(t, "collatz")
	dir := filepath.Join(t.TempDir(), "trace")
	rec, err := Create(dir, faultinj.OS(), MetaFor(eng.Design(), 1024))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	recordRun(t, rec, eng, tb, 100) // far below one chunk
	r, err := Open(dir, faultinj.OS())
	if err != nil {
		t.Fatalf("Open before flush: %v", err)
	}
	if _, _, ok := r.Bounds(); ok {
		t.Fatalf("unflushed rows visible to reader")
	}
	if err := rec.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	r, err = Open(dir, faultinj.OS())
	if err != nil {
		t.Fatalf("Open after flush: %v", err)
	}
	if first, last, ok := r.Bounds(); !ok || first != 0 || last != 100 {
		t.Fatalf("Bounds = %d..%d/%v, want 0..100", first, last, ok)
	}
	// Keep appending: the tail chunk must grow in place.
	row := make([]uint64, len(eng.Design().Registers))
	for i := 0; i < 50; i++ {
		tb.BeforeCycle(eng)
		eng.Cycle()
		tb.AfterCycle(eng)
		if err := rec.Append(eng.CycleCount(), sampleRow(eng, row)); err != nil {
			t.Fatalf("append after flush: %v", err)
		}
	}
	_ = rec.Close()
	r, err = Open(dir, faultinj.OS())
	if err != nil {
		t.Fatalf("Open after close: %v", err)
	}
	if _, last, _ := r.Bounds(); last != 150 {
		t.Fatalf("after growth last = %d, want 150", last)
	}
}

func TestResumeContinuesRecording(t *testing.T) {
	eng, tb := newEngine(t, "collatz")
	dir := filepath.Join(t.TempDir(), "trace")
	rec, err := Create(dir, faultinj.OS(), MetaFor(eng.Design(), 32))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	recordRun(t, rec, eng, tb, 100)
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rec2, err := Resume(dir, faultinj.OS())
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if last, ok := rec2.LastCycle(); !ok || last != 100 {
		t.Fatalf("resumed LastCycle = %d/%v, want 100", last, ok)
	}
	// Continue the same run from cycle 101.
	row := make([]uint64, len(eng.Design().Registers))
	for i := 0; i < 50; i++ {
		tb.BeforeCycle(eng)
		eng.Cycle()
		tb.AfterCycle(eng)
		if err := rec2.Append(eng.CycleCount(), sampleRow(eng, row)); err != nil {
			t.Fatalf("append after resume: %v", err)
		}
	}
	if err := rec2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := Open(dir, faultinj.OS())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, last, _ := r.Bounds(); last != 150 {
		t.Fatalf("resumed recording last = %d, want 150", last)
	}
}

func TestTruncateRewindsRecording(t *testing.T) {
	for _, cut := range []uint64{199, 150, 96, 64, 63, 10, 0} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			eng, tb := newEngine(t, "collatz")
			dir := filepath.Join(t.TempDir(), "trace")
			rec, err := Create(dir, faultinj.OS(), MetaFor(eng.Design(), 64))
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			var want [][]uint64
			want = append(want, sampleRow(eng, nil))
			_ = rec.Append(0, want[0])
			for i := 0; i < 200; i++ {
				tb.BeforeCycle(eng)
				eng.Cycle()
				tb.AfterCycle(eng)
				row := sampleRow(eng, nil)
				want = append(want, row)
				if err := rec.Append(eng.CycleCount(), row); err != nil {
					t.Fatalf("append: %v", err)
				}
			}
			if err := rec.Truncate(cut); err != nil {
				t.Fatalf("Truncate(%d): %v", cut, err)
			}
			if last, ok := rec.LastCycle(); !ok || last != cut {
				t.Fatalf("after truncate LastCycle = %d/%v, want %d", last, ok, cut)
			}
			// Re-record divergent rows from the cut, as a session replay would.
			row := make([]uint64, len(want[0]))
			for cyc := cut + 1; cyc <= 220; cyc++ {
				copy(row, want[cyc%uint64(len(want))])
				if err := rec.Append(cyc, row); err != nil {
					t.Fatalf("re-append %d: %v", cyc, err)
				}
			}
			if err := rec.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			r, err := Open(dir, faultinj.OS())
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if first, last, ok := r.Bounds(); !ok || first != 0 || last != 220 {
				t.Fatalf("Bounds = %d..%d/%v, want 0..220", first, last, ok)
			}
			// Rows at and before the cut must be the original ones.
			got, err := r.Row(cut)
			if err != nil {
				t.Fatalf("Row(%d): %v", cut, err)
			}
			for s := range got {
				if got[s] != want[cut][s] {
					t.Fatalf("cycle %d signal %d = %d, want %d (pre-cut row damaged)", cut, s, got[s], want[cut][s])
				}
			}
		})
	}
}

func TestTruncateBeforeStartEmptiesRecording(t *testing.T) {
	eng, tb := newEngine(t, "collatz")
	dir := filepath.Join(t.TempDir(), "trace")
	rec, err := Create(dir, faultinj.OS(), MetaFor(eng.Design(), 16))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// Start recording mid-run at cycle 50.
	sim.Run(eng, tb, 50)
	recordRun(t, rec, eng, tb, 60)
	if err := rec.Truncate(10); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if _, ok := rec.LastCycle(); ok {
		t.Fatalf("recording should be empty after truncating before its start")
	}
	// A fresh start at any cycle is allowed again.
	if err := rec.Append(10, sampleRow(eng, nil)); err != nil {
		t.Fatalf("append after reset: %v", err)
	}
	_ = rec.Close()
}

// TestVCDWindowByteEquality is the satellite-3 golden test: re-emitting any
// cycle window from the trace store must produce byte-for-byte the VCD a
// live engine streaming that same window would have produced.
func TestVCDWindowByteEquality(t *testing.T) {
	const total, from, to = 300, 120, 260
	dir := recordCatalog(t, "collatz", total, 64)
	r, err := Open(dir, faultinj.OS())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var fromStore bytes.Buffer
	if err := r.WriteVCD(&fromStore, from, to); err != nil {
		t.Fatalf("WriteVCD: %v", err)
	}

	// Live reference: run a fresh engine to `from`, then stream while
	// stepping through `to`.
	eng, tb := newEngine(t, "collatz")
	if ran := sim.Run(eng, tb, from); ran != from {
		t.Fatalf("reference run stopped at %d", ran)
	}
	var live bytes.Buffer
	vw := vcd.New(&live, eng)
	if err := vw.Sample(); err != nil {
		t.Fatalf("Sample: %v", err)
	}
	for eng.CycleCount() < to {
		tb.BeforeCycle(eng)
		eng.Cycle()
		tb.AfterCycle(eng)
		if err := vw.Sample(); err != nil {
			t.Fatalf("Sample: %v", err)
		}
	}
	if !bytes.Equal(fromStore.Bytes(), live.Bytes()) {
		t.Fatalf("re-emitted VCD differs from live stream:\n--- store ---\n%s\n--- live ---\n%s",
			firstDiffContext(fromStore.String(), live.String()), "")
	}
}

// firstDiffContext trims two strings to the neighborhood of their first
// difference so failures stay readable.
func firstDiffContext(a, b string) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := i - 120
	if lo < 0 {
		lo = 0
	}
	end := func(s string) int {
		if i+120 < len(s) {
			return i + 120
		}
		return len(s)
	}
	return fmt.Sprintf("store[%d:]: %q\nlive[%d:]: %q", lo, a[lo:end(a)], lo, b[lo:end(b)])
}

func TestDiffTwoRuns(t *testing.T) {
	// Same design, same run: no divergence.
	a := recordCatalog(t, "collatz", 200, 32)
	b := recordCatalog(t, "collatz", 200, 32)
	ra, err := Open(a, faultinj.OS())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Open(b, faultinj.OS())
	if err != nil {
		t.Fatal(err)
	}
	if cyc, div, err := FirstDivergence(ra, rb, 0, 200); err != nil || div {
		t.Fatalf("identical runs diverged at %d (err %v)", cyc, err)
	}
	if diffs, err := DiffAt(ra, rb, 137); err != nil || len(diffs) != 0 {
		t.Fatalf("identical runs differ at 137: %v (err %v)", diffs, err)
	}

	// Perturb one value mid-recording and re-record: divergence must land
	// exactly there.
	eng, tb := newEngine(t, "collatz")
	dir := filepath.Join(t.TempDir(), "trace")
	rec, err := Create(dir, faultinj.OS(), MetaFor(eng.Design(), 32))
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Append(0, sampleRow(eng, nil)); err != nil {
		t.Fatal(err)
	}
	row := make([]uint64, len(eng.Design().Registers))
	for i := 0; i < 200; i++ {
		tb.BeforeCycle(eng)
		eng.Cycle()
		tb.AfterCycle(eng)
		sampleRow(eng, row)
		if eng.CycleCount() == 150 {
			row[0] ^= 1
		}
		if err := rec.Append(eng.CycleCount(), row); err != nil {
			t.Fatal(err)
		}
	}
	_ = rec.Close()
	rc, err := Open(dir, faultinj.OS())
	if err != nil {
		t.Fatal(err)
	}
	cyc, div, err := FirstDivergence(ra, rc, 0, 200)
	if err != nil || !div || cyc != 150 {
		t.Fatalf("FirstDivergence = %d/%v (err %v), want 150", cyc, div, err)
	}
	diffs, err := DiffAt(ra, rc, 150)
	if err != nil || len(diffs) != 1 {
		t.Fatalf("DiffAt(150) = %v (err %v), want exactly one signal", diffs, err)
	}
}

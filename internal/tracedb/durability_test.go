package tracedb

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cuttlego/internal/bench"
	"cuttlego/internal/faultinj"
)

// corruptOneByte flips a byte in the middle of the named file.
func corruptOneByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("rewrite %s: %v", path, err)
	}
}

func chunkFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".ktrc") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

// TestCorruptChunkNeverWrongAnswer: flipping bits in a chunk must turn
// queries over that region into explicit errors (with the file
// quarantined), never into silently wrong results.
func TestCorruptChunkNeverWrongAnswer(t *testing.T) {
	dir := recordCatalog(t, "collatz", 1000, 64)
	files := chunkFiles(t, dir)
	if len(files) < 4 {
		t.Fatalf("expected several chunks, got %v", files)
	}
	victim := files[len(files)/2]
	corruptOneByte(t, victim)

	r, err := Open(dir, faultinj.OS())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	bm, _ := bench.Lookup("collatz")
	d := bm.New().Design
	// A scan across the whole recording must hit the damaged chunk and
	// error; a constraint-free predicate prevents index pruning from hiding
	// it. (tick is x: always-changing, so no const fast path either.)
	_, err = r.Query(d, Query{Mode: ModeCount, Expr: "x.rd0() >=u 32'd0", To: math.MaxUint64})
	if err == nil {
		t.Fatalf("query over a corrupt chunk returned an answer")
	}
	if _, statErr := os.Stat(victim + ".corrupt"); statErr != nil {
		t.Fatalf("corrupt chunk was not quarantined: %v", statErr)
	}
}

// TestCorruptChunkResumeAndReRecord: after quarantine, resuming the
// recording truncates to the valid prefix, the session re-records the lost
// cycles, and queries answer correctly again.
func TestCorruptChunkResumeAndReRecord(t *testing.T) {
	eng, tb := newEngine(t, "collatz")
	dir := filepath.Join(t.TempDir(), "trace")
	rec, err := Create(dir, faultinj.OS(), MetaFor(eng.Design(), 64))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	recordRun(t, rec, eng, tb, 1000)
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Damage a middle chunk, then resume: the recorder must adopt only the
	// prefix before the damage.
	files := chunkFiles(t, dir)
	victim := files[len(files)/2]
	corruptOneByte(t, victim)
	rec2, err := Resume(dir, faultinj.OS())
	if err != nil {
		t.Fatalf("Resume over damaged recording: %v", err)
	}
	last, ok := rec2.LastCycle()
	if !ok || last >= 1000 {
		t.Fatalf("resume did not truncate: last = %d/%v", last, ok)
	}
	if _, err := os.Stat(victim + ".corrupt"); err != nil {
		t.Fatalf("resume did not quarantine the damaged chunk: %v", err)
	}

	// Re-record the lost suffix by replaying a fresh deterministic run up to
	// 1000 and appending the cycles past the valid prefix.
	eng2, tb2 := newEngine(t, "collatz")
	row := make([]uint64, len(eng2.Design().Registers))
	for eng2.CycleCount() < 1000 {
		tb2.BeforeCycle(eng2)
		eng2.Cycle()
		tb2.AfterCycle(eng2)
		if eng2.CycleCount() <= last {
			continue
		}
		if err := rec2.Append(eng2.CycleCount(), sampleRow(eng2, row)); err != nil {
			t.Fatalf("re-record cycle %d: %v", eng2.CycleCount(), err)
		}
	}
	if err := rec2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The healed recording must answer queries identically to a clean one.
	r, err := Open(dir, faultinj.OS())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, lastNow, ok := r.Bounds(); !ok || lastNow != 1000 {
		t.Fatalf("healed recording bounds end at %d, want 1000", lastNow)
	}
	bm, _ := bench.Lookup("collatz")
	d := bm.New().Design
	want := bruteForce(t, r, "collatz", "x.rd0() == 32'd1", 0, math.MaxUint64)
	res, err := r.Query(d, Query{Mode: ModeCount, Expr: "x.rd0() == 32'd1", To: math.MaxUint64})
	if err != nil {
		t.Fatalf("Query after heal: %v", err)
	}
	if res.Count != uint64(len(want)) {
		t.Fatalf("healed count = %d, want %d", res.Count, len(want))
	}

	// And the healed rows must match an untouched recording of the same run.
	clean := recordCatalog(t, "collatz", 1000, 64)
	rc, err := Open(clean, faultinj.OS())
	if err != nil {
		t.Fatalf("Open clean: %v", err)
	}
	if cyc, div, err := FirstDivergence(r, rc, 0, 1000); err != nil || div {
		t.Fatalf("healed recording diverges from clean at %d (err %v)", cyc, err)
	}
}

// TestTornIndexCommitInvisible: the commit's index write tears silently
// (power loss mid-write) after every chunk file landed, and the torn index
// is renamed into place. Open must reject it by its checksum and serve a
// consistent prefix rebuilt from the chunks, every row equal to the
// replay. (A torn chunk file followed by a crash is
// TestTornChunkWriteThenCrash.)
func TestTornIndexCommitInvisible(t *testing.T) {
	eng, tb := newEngine(t, "collatz")
	dir := filepath.Join(t.TempDir(), "trace")
	// Tear the first index write that credits a chunk: meta (1) and the
	// empty index (2) at Create, chunks c0..c384 at their boundaries
	// (3..9), the tail c448 at Close (10), then the committing index (11).
	inj := faultinj.New(1, faultinj.Rule{Op: "fs.write", Nth: 11, Kind: faultinj.Tear})
	ffs := faultinj.NewFS(faultinj.OS(), inj)
	rec, err := Create(dir, ffs, MetaFor(eng.Design(), 64))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	recordRun(t, rec, eng, tb, 500)
	_ = rec.Close() // flush may or may not error; disk state decides below

	r, err := Open(dir, faultinj.OS())
	if err != nil {
		t.Fatalf("Open after torn write: %v", err)
	}
	first, last, ok := r.Bounds()
	if ok {
		// Whatever survived must be internally consistent and correct: every
		// visible row equals the deterministic replay.
		eng2, tb2 := newEngine(t, "collatz")
		row := make([]uint64, len(eng2.Design().Registers))
		for cyc := first; cyc <= last; cyc++ {
			for eng2.CycleCount() < cyc {
				tb2.BeforeCycle(eng2)
				eng2.Cycle()
				tb2.AfterCycle(eng2)
			}
			got, err := r.Row(cyc)
			if err != nil {
				t.Fatalf("Row(%d) over surviving prefix: %v", cyc, err)
			}
			sampleRow(eng2, row)
			for s := range got {
				if got[s] != row[s] {
					t.Fatalf("cycle %d signal %d = %d, replay says %d — torn write served wrong data",
						cyc, s, got[s], row[s])
				}
			}
		}
	}
}

// TestTornIndexWriteRebuilds: tearing the index leaves the chunks intact;
// Open must rebuild the index from them and lose nothing durable.
func TestTornIndexWriteRebuilds(t *testing.T) {
	dir := recordCatalog(t, "collatz", 500, 64)
	idx := filepath.Join(dir, "index.ktix")
	corruptOneByte(t, idx)
	r, err := Open(dir, faultinj.OS())
	if err != nil {
		t.Fatalf("Open with corrupt index: %v", err)
	}
	first, last, ok := r.Bounds()
	if !ok || first != 0 || last != 500 {
		t.Fatalf("rebuilt bounds = %d..%d/%v, want 0..500", first, last, ok)
	}
	if _, err := os.Stat(idx + ".corrupt"); err != nil {
		t.Fatalf("corrupt index not quarantined: %v", err)
	}
	// Spot-check a row against the deterministic replay.
	eng, tb := newEngine(t, "collatz")
	for eng.CycleCount() < 321 {
		tb.BeforeCycle(eng)
		eng.Cycle()
		tb.AfterCycle(eng)
	}
	got, err := r.Row(321)
	if err != nil {
		t.Fatalf("Row(321): %v", err)
	}
	want := sampleRow(eng, nil)
	for s := range got {
		if got[s] != want[s] {
			t.Fatalf("rebuilt row 321 signal %d = %d, want %d", s, got[s], want[s])
		}
	}
}

// TestRecorderSurvivesTransientWriteFaults: failed chunk writes must not
// drop rows — the recorder buffers and retries, and the final flush lands
// everything once the disk recovers.
func TestRecorderSurvivesTransientWriteFaults(t *testing.T) {
	eng, tb := newEngine(t, "collatz")
	dir := filepath.Join(t.TempDir(), "trace")
	// Fail two mid-recording chunk writes, then let everything succeed:
	// meta (1) and the empty index (2) at Create, c0 (3), then c32 at its
	// boundary (4) and again, 64 rows long, at the next one (5).
	inj := faultinj.New(1,
		faultinj.Rule{Op: "fs.write", Nth: 4, Kind: faultinj.Fail},
		faultinj.Rule{Op: "fs.write", Nth: 5, Kind: faultinj.Fail},
	)
	ffs := faultinj.NewFS(faultinj.OS(), inj)
	rec, err := Create(dir, ffs, MetaFor(eng.Design(), 32))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	recordRun(t, rec, eng, tb, 400)
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := Open(dir, faultinj.OS())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if first, last, ok := r.Bounds(); !ok || first != 0 || last != 400 {
		t.Fatalf("bounds = %d..%d/%v, want 0..400 despite transient faults", first, last, ok)
	}
}

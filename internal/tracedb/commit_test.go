package tracedb

import (
	"bytes"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cuttlego/internal/bench"
	"cuttlego/internal/faultinj"
	"cuttlego/internal/sim"
	"cuttlego/internal/vcd"
)

// replayRows runs a fresh engine of a catalogue design and returns its rows
// for cycles 0..last, in the recording convention (row c is the state at
// CycleCount() == c).
func replayRows(t *testing.T, catalog string, last uint64) [][]uint64 {
	t.Helper()
	eng, tb := newEngine(t, catalog)
	rows := [][]uint64{sampleRow(eng, nil)}
	for eng.CycleCount() < last {
		tb.BeforeCycle(eng)
		eng.Cycle()
		tb.AfterCycle(eng)
		rows = append(rows, sampleRow(eng, nil))
	}
	return rows
}

// checkRows requires the reader to cover exactly first..last and every
// visible row to equal the replay.
func checkRows(t *testing.T, r *Reader, want [][]uint64, first, last uint64) {
	t.Helper()
	gotFirst, gotLast, ok := r.Bounds()
	if !ok || gotFirst != first || gotLast != last {
		t.Fatalf("bounds = %d..%d/%v, want %d..%d", gotFirst, gotLast, ok, first, last)
	}
	for cyc := first; cyc <= last; cyc++ {
		got, err := r.Row(cyc)
		if err != nil {
			t.Fatalf("Row(%d): %v", cyc, err)
		}
		for s := range got {
			if got[s] != want[cyc][s] {
				t.Fatalf("cycle %d signal %d = %d, replay says %d", cyc, s, got[s], want[cyc][s])
			}
		}
	}
}

// appendRows appends replay rows from..to (inclusive).
func appendRows(t *testing.T, rec *Recorder, rows [][]uint64, from, to uint64) {
	t.Helper()
	for c := from; c <= to; c++ {
		if err := rec.Append(c, rows[c]); err != nil {
			t.Fatalf("Append(%d): %v", c, err)
		}
	}
}

// encodings returns the column encodings of chunk file path.
func encodings(t *testing.T, path string, nsig int) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v, err := parseChunk(data, nsig)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return v.enc
}

// TestTornChunkWriteThenCrash: a chunk landed after the last commit is torn
// and the recorder is dropped without Close (a crash). Open must serve
// exactly the committed prefix, every row equal to the replay — including
// the committed tail whose file a later chunk boundary replaced.
func TestTornChunkWriteThenCrash(t *testing.T) {
	rows := replayRows(t, "collatz", 400)
	// Writes: meta (1), empty index (2), c0 c64 c128 (3..5), the Flush's
	// tail c192 (6) and index (7); then c192 again at its boundary (8) and
	// c256 (9), torn.
	inj := faultinj.New(1, faultinj.Rule{Op: "fs.write", Nth: 9, Kind: faultinj.Tear})
	dir := filepath.Join(t.TempDir(), "trace")
	rec, err := Create(dir, faultinj.NewFS(faultinj.OS(), inj), MetaFor(bench.CollatzBench(27).MustCheck(), 64))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	appendRows(t, rec, rows, 0, 200)
	if err := rec.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if n := inj.Calls("fs.write"); n != 7 {
		t.Fatalf("%d writes up to the commit, want 7", n)
	}
	appendRows(t, rec, rows, 201, 400)
	if evs := inj.Events(); len(evs) != 1 || evs[0].String() != "fs.write#9:tear" {
		t.Fatalf("injector events = %v, want [fs.write#9:tear]", evs)
	}
	// Crash: rec is dropped, never closed.

	r, err := Open(dir, faultinj.OS())
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	checkRows(t, r, rows, 0, 200)

	// Resuming continues the committed timeline and heals the rest.
	rec2, err := Resume(dir, faultinj.OS())
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if last, ok := rec2.LastCycle(); !ok || last != 200 {
		t.Fatalf("resumed at %d/%v, want 200", last, ok)
	}
	appendRows(t, rec2, rows, 201, 400)
	if err := rec2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r2, err := Open(dir, faultinj.OS())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	checkRows(t, r2, rows, 0, 400)
}

// TestFlushSyncFailureKeepsIndex: a commit that fails at any fsync before
// the index lands — a chunk file, the directory, or the index's own temp
// file — leaves index.ktix byte-for-byte as it was; a failed index write
// does too. The retried Flush then commits everything.
func TestFlushSyncFailureKeepsIndex(t *testing.T) {
	rows := replayRows(t, "collatz", 300)
	// Rows 0..260 land c0, c64, c128 and c192 unsynced, so the commit
	// writes the tail c256, syncs the five chunk files and the directory,
	// then writes the index through its temp file.
	probe := recordCalls()
	rec, _ := newCollatzRecorder(t, probe)
	appendRows(t, rec, rows, 0, 260)
	from := len(probe.Events())
	if err := rec.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	calls := map[string]faultinj.Rule{}
	for _, c := range namedCalls(probe.Events()[from:]) {
		calls[c.name] = c.rule
	}
	for _, name := range []string{
		"sync c64", "sync c256", "sync dir", "sync index temp",
		"write c256 temp", "write index temp",
	} {
		rule, ok := calls[name]
		if !ok {
			t.Fatalf("the commit issued no %q call: %v", name, probe.Events()[from:])
		}
		t.Run(name, func(t *testing.T) {
			inj := faultinj.New(1, rule)
			rec, dir := newCollatzRecorder(t, inj)
			if s, w := inj.Calls("fs.sync"), inj.Calls("fs.write"); s != 3 || w != 2 {
				t.Fatalf("Create issued %d syncs and %d writes, want 3 and 2", s, w)
			}
			appendRows(t, rec, rows, 0, 260)
			idx := filepath.Join(dir, "index.ktix")
			before, err := os.ReadFile(idx)
			if err != nil {
				t.Fatal(err)
			}
			if err := rec.Flush(); err == nil {
				t.Fatalf("Flush succeeded over an injected %s fault", name)
			}
			if len(inj.Events()) != 1 {
				t.Fatalf("injector events = %v, want one", inj.Events())
			}
			after, err := os.ReadFile(idx)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("a failed commit changed index.ktix")
			}
			r, err := Open(dir, faultinj.OS())
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if _, _, ok := r.Bounds(); ok {
				t.Fatal("a failed commit made rows visible")
			}
			// The disk recovered: the retry commits every row.
			appendRows(t, rec, rows, 261, 300)
			if err := rec.Close(); err != nil {
				t.Fatalf("Close after the fault passed: %v", err)
			}
			r, err = Open(dir, faultinj.OS())
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			checkRows(t, r, rows, 0, 300)
		})
	}
}

// TestResumeRemovesUncreditedChunks: chunk files landed after the last
// commit belong to a timeline the durable index does not hold. Resume must
// delete them and cut an over-long credited file back to its credited
// rows, so that even an index rebuild (index lost) serves only the
// committed prefix.
func TestResumeRemovesUncreditedChunks(t *testing.T) {
	rows := replayRows(t, "collatz", 700)
	dir := filepath.Join(t.TempDir(), "trace")
	rec, err := Create(dir, faultinj.OS(), MetaFor(bench.CollatzBench(27).MustCheck(), 64))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	appendRows(t, rec, rows, 0, 200) // c0 c64 c128 closed, tail c192 of 9 rows
	if err := rec.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	appendRows(t, rec, rows, 201, 700) // c192 (now 64 rows) .. c640 land uncommitted
	// Crash: rec is dropped, never closed.

	rec2, err := Resume(dir, faultinj.OS())
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if last, ok := rec2.LastCycle(); !ok || last != 200 {
		t.Fatalf("resumed at %d/%v, want 200", last, ok)
	}
	var names []string
	for _, p := range chunkFiles(t, dir) {
		names = append(names, filepath.Base(p))
	}
	if got := strings.Join(names, " "); got != "c0.ktrc c128.ktrc c192.ktrc c64.ktrc" {
		t.Fatalf("chunk files after Resume: %s", got)
	}
	// Lose the index: the rebuild sees only what Resume kept.
	if err := os.Remove(filepath.Join(dir, "index.ktix")); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, faultinj.OS())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	checkRows(t, r, rows, 0, 200)
}

// countFS counts the chunk writes, index writes and syncs issued through
// it.
type countFS struct {
	faultinj.FS
	chunkWrites, indexWrites, syncs int
}

func (c *countFS) WriteFile(path string, data []byte, perm fs.FileMode) error {
	switch {
	case strings.HasSuffix(path, ".ktrc.tmp"):
		c.chunkWrites++
	case strings.HasSuffix(path, "index.ktix.tmp"):
		c.indexWrites++
	}
	return c.FS.WriteFile(path, data, perm)
}

func (c *countFS) Sync(path string) error {
	c.syncs++
	return c.FS.Sync(path)
}

// TestGroupCommitWriteCounts: between commits, a chunk boundary costs one
// chunk write and nothing else — no sync, no index rewrite — however long
// the recording already is. Flush then syncs each chunk once, the
// directory once, and writes one index. Only a boundary that replaces a
// committed tail syncs, once.
func TestGroupCommitWriteCounts(t *testing.T) {
	const chunk, chunks = 16, 64
	cfs := &countFS{FS: faultinj.OS()}
	meta := Meta{Design: "counts", ChunkCycles: chunk, Signals: []Signal{{"a", 8}, {"b", 8}}}
	rec, err := Create(filepath.Join(t.TempDir(), "trace"), cfs, meta)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	*cfs = countFS{FS: cfs.FS}
	for c := uint64(0); c < chunk*chunks; c++ {
		if err := rec.Append(c, []uint64{c % 7, c / 100}); err != nil {
			t.Fatalf("Append(%d): %v", c, err)
		}
		if c%chunk == chunk-1 {
			n := int(c / chunk)
			if cfs.chunkWrites != n+1 || cfs.indexWrites != 0 || cfs.syncs != 0 {
				t.Fatalf("after chunk %d: %d chunk writes, %d index writes, %d syncs; want %d, 0, 0",
					n, cfs.chunkWrites, cfs.indexWrites, cfs.syncs, n+1)
			}
		}
	}
	if err := rec.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	// chunks file syncs + the directory, then the index's temp file and the
	// directory again.
	if cfs.chunkWrites != chunks || cfs.indexWrites != 1 || cfs.syncs != chunks+3 {
		t.Fatalf("after Flush: %d chunk writes, %d index writes, %d syncs; want %d, 1, %d",
			cfs.chunkWrites, cfs.indexWrites, cfs.syncs, chunks, chunks+3)
	}
	// A second Flush with nothing new is free.
	if err := rec.Flush(); err != nil || cfs.indexWrites != 1 || cfs.syncs != chunks+3 {
		t.Fatalf("idle Flush: err %v, %d index writes, %d syncs", err, cfs.indexWrites, cfs.syncs)
	}
	// Commit a partial tail, then fill its chunk: the boundary replaces a
	// file the durable index credits, so that one write is synced before
	// its rename — and still no index is written.
	next := uint64(chunk * chunks)
	for ; next < chunk*chunks+chunk/2; next++ {
		if err := rec.Append(next, []uint64{1, 2}); err != nil {
			t.Fatalf("Append(%d): %v", next, err)
		}
	}
	if err := rec.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	*cfs = countFS{FS: cfs.FS}
	for ; next < chunk*(chunks+1); next++ {
		if err := rec.Append(next, []uint64{1, 2}); err != nil {
			t.Fatalf("Append(%d): %v", next, err)
		}
	}
	if cfs.chunkWrites != 1 || cfs.indexWrites != 0 || cfs.syncs != 1 {
		t.Fatalf("credited tail closed: %d chunk writes, %d index writes, %d syncs; want 1, 0, 1",
			cfs.chunkWrites, cfs.indexWrites, cfs.syncs)
	}
}

// TestEncodeRowsRoundTrip: every column comes back from encodeRows →
// parseChunk → col exactly, and each takes the encoding its shape calls
// for.
func TestEncodeRowsRoundTrip(t *testing.T) {
	const n, nsig = 200, 3
	var rows []uint64
	for i := uint64(0); i < n; i++ {
		rows = append(rows, 42, i/50, i*1e12) // constant, four runs, every row new
	}
	data, sums := encodeRows(nil, 7, rows, nsig)
	v, err := parseChunk(data, nsig)
	if err != nil {
		t.Fatalf("parseChunk: %v", err)
	}
	if want := []byte{encConst, encRuns, encDense}; !bytes.Equal(v.enc, want) {
		t.Fatalf("encodings = %v, want %v", v.enc, want)
	}
	if v.start != 7 || v.count != n {
		t.Fatalf("header = start %d, %d rows", v.start, v.count)
	}
	for s := 0; s < nsig; s++ {
		col := v.col(s)
		for i := 0; i < n; i++ {
			if col[i] != rows[i*nsig+s] {
				t.Fatalf("signal %d row %d = %d, want %d", s, i, col[i], rows[i*nsig+s])
			}
		}
		if want := sumOf(col); sums[s] != want {
			t.Fatalf("signal %d summary %+v, want %+v", s, sums[s], want)
		}
	}
}

// TestDenseFormatRecordingCompat opens a recording written before run-length
// columns existed (testdata/collatz-dense: collatz, 300 rows, 64-row
// chunks, every changing column dense), answers queries and VCD windows
// from it against a replay, then resumes it and appends run-length chunks
// after the dense ones.
func TestDenseFormatRecordingCompat(t *testing.T) {
	dir := copyFixture(t, "testdata/collatz-dense")
	d := bench.CollatzBench(27).MustCheck()
	nsig := len(d.Registers)
	for _, p := range chunkFiles(t, dir) {
		if enc := encodings(t, p, nsig); bytes.IndexByte(enc, encRuns) >= 0 || bytes.IndexByte(enc, encDense) < 0 {
			t.Fatalf("fixture chunk %s has encodings %v, want dense columns and no runs", filepath.Base(p), enc)
		}
	}
	rows := replayRows(t, "collatz", 700)
	r, err := Open(dir, faultinj.OS())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := r.Meta().CheckDesign(d); err != nil {
		t.Fatal(err)
	}
	checkRows(t, r, rows, 0, 299)
	checkQueries(t, r, d.Name)
	checkVCD(t, r, 40, 250)

	rec, err := Resume(dir, faultinj.OS())
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	appendRows(t, rec, rows, 300, 700)
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	runs := 0
	for _, p := range chunkFiles(t, dir) {
		if bytes.IndexByte(encodings(t, p, nsig), encRuns) >= 0 {
			runs++
		}
	}
	if runs == 0 {
		t.Fatal("no appended chunk uses run-length columns")
	}
	r, err = Open(dir, faultinj.OS())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	checkRows(t, r, rows, 0, 700)
	checkQueries(t, r, d.Name)
	checkVCD(t, r, 250, 520) // straddles the dense and run-length chunks
}

// copyFixture copies a checked-in recording into a temporary directory, so
// a test may resume and append to it.
func copyFixture(t *testing.T, fixture string) string {
	t.Helper()
	dir := t.TempDir()
	ents, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(fixture, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestFormat1RecordingCompat opens a recording written before fired-rule
// columns existed (testdata/collatz-v1: format 1, collatz, 200 rows,
// 64-row chunks, signals only). It must answer register queries as a
// replay does, re-emit byte for byte the VCD its writer emitted
// (testdata/collatz-v1.vcd), refuse fired(rule) with ErrNoFired, and
// resume with register-only rows.
func TestFormat1RecordingCompat(t *testing.T) {
	dir := copyFixture(t, "testdata/collatz-v1")
	d := bench.CollatzBench(27).MustCheck()
	rows := replayRows(t, "collatz", 500)
	check := func(last uint64) *Reader {
		t.Helper()
		r, err := Open(dir, faultinj.OS())
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if m := r.Meta(); m.Version != 1 || len(m.Rules) != 0 || m.Columns() != len(d.Registers) {
			t.Fatalf("meta = version %d, %d rules, %d columns; want format 1 with registers only", m.Version, len(m.Rules), m.Columns())
		}
		if err := r.Meta().CheckDesign(d); err != nil {
			t.Fatal(err)
		}
		checkRows(t, r, rows, 0, last)
		checkQueries(t, r, d.Name)
		_, err = r.Query(d, Query{Mode: ModeCount, Expr: "fired(" + d.Rules[0].Name + ")", To: math.MaxUint64})
		if !errors.Is(err, ErrNoFired) {
			t.Fatalf("fired() query on a format 1 recording: %v, want ErrNoFired", err)
		}
		return r
	}
	r := check(199)
	var got bytes.Buffer
	if err := r.WriteVCD(&got, 0, 199); err != nil {
		t.Fatalf("WriteVCD: %v", err)
	}
	want, err := os.ReadFile("testdata/collatz-v1.vcd")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("VCD of the format 1 recording changed: %s", firstDiffContext(got.String(), string(want)))
	}

	rec, err := Resume(dir, faultinj.OS())
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	appendRows(t, rec, rows, 200, 500)
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r = check(500)
	checkVCD(t, r, 150, 400)
}

// checkQueries compares each query mode with a brute-force scan.
func checkQueries(t *testing.T, r *Reader, catalog string) {
	t.Helper()
	bm, _ := bench.Lookup(catalog)
	d := bm.New().Design
	for _, expr := range []string{"done.rd0() == 1'd1", "x.rd0() == 32'd1", "seed.rd0() >=u 32'd30"} {
		want := bruteForce(t, r, catalog, expr, 0, math.MaxUint64)
		res, err := r.Query(d, Query{Mode: ModeCount, Expr: expr, To: math.MaxUint64})
		if err != nil {
			t.Fatalf("count %s: %v", expr, err)
		}
		if res.Count != uint64(len(want)) {
			t.Fatalf("count %s = %d, want %d", expr, res.Count, len(want))
		}
		res, err = r.Query(d, Query{Mode: ModeFirst, Expr: expr, To: math.MaxUint64})
		if err != nil {
			t.Fatalf("first %s: %v", expr, err)
		}
		if res.Matched != (len(want) > 0) || res.Matched && res.Cycle != want[0] {
			t.Fatalf("first %s = %d/%v, want %v", expr, res.Cycle, res.Matched, want)
		}
	}
}

// checkVCD compares a re-emitted window with a live engine's stream.
func checkVCD(t *testing.T, r *Reader, from, to uint64) {
	t.Helper()
	var store bytes.Buffer
	if err := r.WriteVCD(&store, from, to); err != nil {
		t.Fatalf("WriteVCD: %v", err)
	}
	eng, tb := newEngine(t, "collatz")
	sim.Run(eng, tb, from)
	var live bytes.Buffer
	vw := vcd.New(&live, eng)
	if err := vw.Sample(); err != nil {
		t.Fatal(err)
	}
	for eng.CycleCount() < to {
		tb.BeforeCycle(eng)
		eng.Cycle()
		tb.AfterCycle(eng)
		if err := vw.Sample(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(store.Bytes(), live.Bytes()) {
		t.Fatalf("VCD window %d..%d differs from the live stream: %s", from, to,
			firstDiffContext(store.String(), live.String()))
	}
}

// newCollatzRecorder creates a collatz recording with 64-row chunks in a
// fresh directory, on the OS filesystem under inj.
func newCollatzRecorder(t *testing.T, inj *faultinj.Injector) (*Recorder, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "trace")
	rec, err := Create(dir, faultinj.NewFS(faultinj.OS(), inj), MetaFor(bench.CollatzBench(27).MustCheck(), 64))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return rec, dir
}

// truncateCuts are the Truncate targets after rows 0..200 are recorded and
// flushed: closed chunks c0, c64, c128, and the committed tail c192..200.
var truncateCuts = []struct {
	name  string
	cycle uint64
}{
	{"in-buffer", 195},   // inside the committed tail
	{"in-chunk", 150},    // inside closed chunk c128
	{"chunk-start", 128}, // the first row of c128
}

// TestTruncateThenCrashKeepsCut: a Truncate that drops committed rows and
// is followed by a crash (the recorder dropped without Close) leaves Open
// serving exactly the rows up to the cut — the kept rows stay durable even
// though no Flush followed.
func TestTruncateThenCrashKeepsCut(t *testing.T) {
	rows := replayRows(t, "collatz", 300)
	for _, tc := range truncateCuts {
		t.Run(tc.name, func(t *testing.T) {
			rec, dir := newCollatzRecorder(t, nil)
			appendRows(t, rec, rows, 0, 200)
			if err := rec.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			if err := rec.Truncate(tc.cycle); err != nil {
				t.Fatalf("Truncate(%d): %v", tc.cycle, err)
			}
			// Crash: rec is dropped, never closed.
			r, err := Open(dir, faultinj.OS())
			if err != nil {
				t.Fatalf("Open after crash: %v", err)
			}
			checkRows(t, r, rows, 0, tc.cycle)

			rec2, err := Resume(dir, faultinj.OS())
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			appendRows(t, rec2, rows, tc.cycle+1, 300)
			if err := rec2.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if r, err = Open(dir, faultinj.OS()); err != nil {
				t.Fatalf("Open: %v", err)
			}
			checkRows(t, r, rows, 0, 300)
		})
	}
}

// TestTruncateFaultThenCrash fails each write, sync and rename of a rewind
// over committed rows — the Truncate, then the re-recorded rows up to
// cycle 200 and the Flush that commits them — in turn, and then crashes.
// Whatever step failed, Open must serve a prefix of the replay that still
// reaches the cut: exactly the cut or cycle 200 when Truncate reported
// success, and cycle 200 when the Flush did too.
func TestTruncateFaultThenCrash(t *testing.T) {
	rows := replayRows(t, "collatz", 200)
	for _, tc := range truncateCuts {
		// rewind truncates to the cut and, when that succeeds, re-records
		// the replayed rows and flushes them. mark, when set, is called
		// after each of the three steps.
		rewind := func(rec *Recorder, mark func(step string)) (terr, ferr error) {
			if terr = rec.Truncate(tc.cycle); terr != nil {
				return terr, nil
			}
			mark("truncate")
			appendRows(t, rec, rows, tc.cycle+1, 200)
			mark("append")
			ferr = rec.Flush()
			mark("flush")
			return nil, ferr
		}
		// Record every call of a clean rewind, to name each by its step
		// and the file it touches.
		probe := recordCalls()
		rec, _ := newCollatzRecorder(t, probe)
		appendRows(t, rec, rows, 0, 200)
		if err := rec.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		from := len(probe.Events())
		var cases []namedCall
		terr, ferr := rewind(rec, func(step string) {
			evs := probe.Events()
			for _, c := range namedCalls(evs[from:]) {
				c.name = step + "/" + c.name
				cases = append(cases, c)
			}
			from = len(evs)
		})
		if terr != nil || ferr != nil {
			t.Fatalf("rewind to %d: Truncate %v, Flush %v", tc.cycle, terr, ferr)
		}
		for _, c := range cases {
			t.Run(tc.name+"/"+c.name, func(t *testing.T) {
				inj := faultinj.New(1, c.rule)
				rec, dir := newCollatzRecorder(t, inj)
				appendRows(t, rec, rows, 0, 200)
				if err := rec.Flush(); err != nil {
					t.Fatalf("Flush: %v", err)
				}
				terr, ferr := rewind(rec, func(string) {})
				if len(inj.Events()) != 1 {
					t.Fatalf("injector events = %v, want one", inj.Events())
				}
				// Crash: rec is dropped, never closed.
				r, err := Open(dir, faultinj.OS())
				if err != nil {
					t.Fatalf("Open after crash: %v", err)
				}
				_, last, ok := r.Bounds()
				if !ok || last < tc.cycle ||
					(terr == nil && last != tc.cycle && last != 200) ||
					(terr == nil && ferr == nil && last != 200) {
					t.Fatalf("after Truncate(%d) = %v, Flush = %v and a crash, recording ends at %d/%v", tc.cycle, terr, ferr, last, ok)
				}
				checkRows(t, r, rows, 0, last)
			})
		}
	}
}

// recordCalls returns an injector whose event log records every write,
// sync and rename: each fires a zero-delay Latency fault, which the call
// passes through unharmed. A clean run's log then ties each call number to
// the file the call touched.
func recordCalls() *faultinj.Injector {
	var rules []faultinj.Rule
	for _, op := range []string{"fs.write", "fs.sync", "fs.rename"} {
		rules = append(rules, faultinj.Rule{Op: op, Nth: 1, Every: 1, Kind: faultinj.Latency})
	}
	return faultinj.New(1, rules...)
}

// namedCall is one recorded call: its name and the rule that fails it.
type namedCall struct {
	name string
	rule faultinj.Rule
}

// namedCalls names recorded calls by what they do to which file: "write
// c64 temp", "rename c64", "sync c64", "sync index temp", "sync dir" (the
// recording directory, which newCollatzRecorder names trace). A name
// repeated in evs gets its ordinal: the second directory sync is "sync dir
// 2".
func namedCalls(evs []faultinj.Event) []namedCall {
	seen := map[string]int{}
	out := make([]namedCall, len(evs))
	for i, ev := range evs {
		file := strings.TrimSuffix(ev.Path, ".tmp")
		name := strings.TrimSuffix(strings.TrimSuffix(file, ".ktrc"), ".ktix")
		switch {
		case ev.Path == "trace":
			name = "dir"
		case file != ev.Path:
			name += " temp"
		}
		name = strings.TrimPrefix(ev.Op, "fs.") + " " + name
		if seen[name]++; seen[name] > 1 {
			name += " " + strconv.Itoa(seen[name])
		}
		out[i] = namedCall{name, faultinj.Rule{Op: ev.Op, Nth: ev.Call, Kind: faultinj.Fail}}
	}
	return out
}

// TestTruncateIntoTornChunkThenFlush: a chunk write that tore but reported
// success is found damaged when a Truncate reloads it. Truncate reports the
// damage, quarantines the file and ends the recording before it. The
// recorder must neither fsync the renamed-aside file at the next commit —
// every later commit would fail on a path that is gone — nor credit it.
func TestTruncateIntoTornChunkThenFlush(t *testing.T) {
	rows := replayRows(t, "collatz", 200)
	// Writes: meta (1), empty index (2), c0 (3), c64 (4, torn), c128 (5).
	inj := faultinj.New(1, faultinj.Rule{Op: "fs.write", Nth: 4, Kind: faultinj.Tear})
	rec, dir := newCollatzRecorder(t, inj)
	appendRows(t, rec, rows, 0, 200)
	if err := rec.Truncate(100); err == nil {
		t.Fatal("Truncate into a torn chunk succeeded")
	}
	if _, err := os.Stat(filepath.Join(dir, chunkFile(64))); !os.IsNotExist(err) {
		t.Fatalf("torn chunk c64 not quarantined: %v", err)
	}
	if last, ok := rec.LastCycle(); !ok || last != 63 {
		t.Fatalf("after the damaged c64 the recording ends at %d/%v, want 63", last, ok)
	}
	if err := rec.Flush(); err != nil {
		t.Fatalf("Flush after a quarantining Truncate: %v", err)
	}
	r, err := Open(dir, faultinj.OS())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	checkRows(t, r, rows, 0, 63)
	// Rewinding before the damage recovers a whole recording.
	if err := rec.Truncate(30); err != nil {
		t.Fatalf("Truncate(30): %v", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if r, err = Open(dir, faultinj.OS()); err != nil {
		t.Fatalf("Open: %v", err)
	}
	checkRows(t, r, rows, 0, 30)
}

// TestCreateSyncsDirectoryOnce: Create lands meta.json and the empty index
// each by temp + fsync + rename, then makes both names durable with one
// directory sync — 3 syncs where one directory sync per file took 4.
func TestCreateSyncsDirectoryOnce(t *testing.T) {
	inj := faultinj.New(1)
	dir := filepath.Join(t.TempDir(), "trace")
	if _, err := Create(dir, faultinj.NewFS(faultinj.OS(), inj), MetaFor(bench.CollatzBench(27).MustCheck(), 64)); err != nil {
		t.Fatalf("Create: %v", err)
	}
	for op, want := range map[string]uint64{"fs.sync": 3, "fs.write": 2, "fs.rename": 2} {
		if got := inj.Calls(op); got != want {
			t.Errorf("Create issued %d %s ops, want %d", got, op, want)
		}
	}
}

// TestCreateFaultThenCrash fails each write, sync and rename Create issues,
// in turn, and then crashes (the recorder is dropped). Either Create
// reported the failure, or Open and Resume both find a valid empty
// recording; a recording they do find is empty and resumable either way.
func TestCreateFaultThenCrash(t *testing.T) {
	meta := MetaFor(bench.CollatzBench(27).MustCheck(), 64).WithRules(bench.CollatzBench(27).MustCheck())
	for op, calls := range map[string]uint64{"fs.sync": 3, "fs.write": 2, "fs.rename": 2} {
		for n := uint64(1); n <= calls; n++ {
			rule := faultinj.Rule{Op: op, Nth: n, Kind: faultinj.Fail}
			t.Run(faultinj.Event{Op: op, Call: n, Kind: rule.Kind}.String(), func(t *testing.T) {
				inj := faultinj.New(1, rule)
				dir := filepath.Join(t.TempDir(), "trace")
				_, cerr := Create(dir, faultinj.NewFS(faultinj.OS(), inj), meta)
				if len(inj.Events()) != 1 {
					t.Fatalf("injector events = %v, want one", inj.Events())
				}
				r, err := Open(dir, faultinj.OS())
				if cerr != nil && errors.Is(err, ErrNoTrace) {
					return
				}
				if err != nil {
					t.Fatalf("Create = %v, then Open: %v", cerr, err)
				}
				if _, _, ok := r.Bounds(); ok {
					t.Fatal("a fresh recording has rows")
				}
				rec, err := Resume(dir, faultinj.OS())
				if err != nil {
					t.Fatalf("Create = %v, then Resume: %v", cerr, err)
				}
				if rec.Rows() != 0 || rec.Meta().Columns() != meta.Columns() {
					t.Fatalf("resumed %d rows of %d columns, want 0 of %d", rec.Rows(), rec.Meta().Columns(), meta.Columns())
				}
			})
		}
	}
}

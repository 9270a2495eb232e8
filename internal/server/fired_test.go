package server

// White-box tests for recorded rule firings: every tier records, per
// cycle, the fired-rule words the reference interpreter reports, and
// fired(rule) queries over a recording answer as a brute-force replay does.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cuttlego/internal/ast"
	"cuttlego/internal/bench"
	"cuttlego/internal/interp"
	"cuttlego/internal/lang"
	"cuttlego/internal/sim"
	"cuttlego/internal/tracedb"
)

// wideSource is a design of n+1 rules: n guarded incrementers that take
// turns on a free-running counter's bits and collide on eight shared
// registers, then the counter's tick. With n > 64 a row carries two
// fired-rule words.
func wideSource(n int) string {
	var b strings.Builder
	b.WriteString("design wide\n\nregister t : bits<16>\n")
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&b, "register a%d : bits<8>\n", i)
	}
	sched := make([]string, 0, n+1)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "\nrule f%d:\n    guard t.rd0()[%d +: 2] == 2'd%d\n    a%d.wr0(a%d.rd0() + 8'd%d)\n",
			i, i%14, i%4, i%8, i%8, i%200+1)
		sched = append(sched, fmt.Sprintf("f%d", i))
	}
	b.WriteString("\nrule tick:\n    t.wr0(t.rd0() + 16'd1)\n\nschedule: ")
	b.WriteString(strings.Join(append(sched, "tick"), " ") + "\n")
	return b.String()
}

// firedDesign is one design of the oracle: how to create it, and a fresh
// instance of it for the reference replay.
type firedDesign struct {
	name   string
	req    CreateRequest
	cycles uint64
	inst   func(t *testing.T) bench.Instance
}

func sourceInstance(src string) func(t *testing.T) bench.Instance {
	return func(t *testing.T) bench.Instance {
		d, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		return bench.Instance{Design: d}
	}
}

func catalogInstance(name string) func(t *testing.T) bench.Instance {
	return func(t *testing.T) bench.Instance {
		bm, ok := bench.Lookup(name)
		if !ok {
			t.Fatalf("no catalogue design %q", name)
		}
		return bm.New()
	}
}

// replayFired steps a fresh interp engine one cycle at a time and returns,
// per cycle 0..n, the row a recording holds: the registers, then the
// fired-rule words built from RuleFired (all clear at cycle 0).
func replayFired(t *testing.T, inst bench.Instance, n uint64) [][]uint64 {
	t.Helper()
	d := inst.Design
	e, err := interp.New(d)
	if err != nil {
		t.Fatalf("interp.New: %v", err)
	}
	var tb sim.Testbench = sim.NopBench{}
	if inst.Bench != nil {
		tb = inst.Bench
	}
	nregs := len(d.Registers)
	row := func() []uint64 {
		r := make([]uint64, sim.RowLen(d))
		for i, reg := range d.Registers {
			r[i] = e.Reg(reg.Name).Val
		}
		for i, rule := range d.Rules {
			if e.RuleFired(rule.Name) {
				r[nregs+i/64] |= 1 << (i % 64)
			}
		}
		return r
	}
	rows := [][]uint64{row()}
	for c := uint64(1); c <= n; c++ {
		tb.BeforeCycle(e)
		e.Cycle()
		tb.AfterCycle(e)
		rows = append(rows, row())
	}
	return rows
}

// TestRecordedFiredMatchesInterp records gcd, collatz, msi and a 71-rule
// design on cuttlesim, rtlsim, interp and (with a Go toolchain) the native
// tier, stepping in uneven batches. Every recorded row — registers and
// fired-rule words — must equal interp's, stepped one cycle at a time, and
// first, last and count fired(rule) queries must answer as a brute-force
// scan of that replay does. The native gcd run reaches the activity tier's
// fixed point, whose remaining cycles the servo sends as one repeated row.
func TestRecordedFiredMatchesInterp(t *testing.T) {
	gcd, err := os.ReadFile(filepath.Join("..", "..", "examples", "designs", "gcd.koika"))
	if err != nil {
		t.Fatal(err)
	}
	designs := []firedDesign{
		{"gcd", CreateRequest{Source: string(gcd)}, 300, sourceInstance(string(gcd))},
		{"collatz", CreateRequest{Catalog: "collatz"}, 300, catalogInstance("collatz")},
		{"msi", CreateRequest{Catalog: "msi"}, 1500, catalogInstance("msi")},
		{"wide", CreateRequest{Source: wideSource(70)}, 600, sourceInstance(wideSource(70))},
	}
	engines := []string{"cuttlesim", "rtlsim", "interp"}
	cfg := Config{StoreDir: t.TempDir()}
	if _, err := exec.LookPath("go"); err == nil {
		engines = append(engines, "native")
		cfg.NativeCacheDir = t.TempDir()
	} else {
		t.Log("no Go toolchain: the native tier is not covered")
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	ctx := context.Background()
	for _, fd := range designs {
		want := replayFired(t, fd.inst(t), fd.cycles)
		d := fd.inst(t).Design
		if err := d.Check(); err != nil {
			t.Fatalf("%s: %v", fd.name, err)
		}
		if fd.name == "wide" && sim.FiredWords(len(d.Rules)) != 2 {
			t.Fatalf("wide has %d rules, want more than 64", len(d.Rules))
		}
		if fd.name == "gcd" {
			// gcd is done long before the end: its last 200 cycles fire no
			// rule, the fixed point.
			for c, row := range want[fd.cycles-200:] {
				if row[len(row)-1] != 0 {
					t.Fatalf("gcd still fires rules at cycle %d", fd.cycles-200+uint64(c))
				}
			}
		}
		for _, eng := range engines {
			t.Run(fd.name+"/"+eng, func(t *testing.T) {
				req := fd.req
				req.Engine = eng
				id := fd.name + "-" + eng
				sess, err := newSession(id, req, srv.env())
				if err != nil {
					t.Fatalf("newSession: %v", err)
				}
				if _, err := srv.admit(sess); err != nil {
					t.Fatalf("admit: %v", err)
				}
				dir, fsys, err := srv.traceHome(id)
				if err != nil {
					t.Fatal(err)
				}
				if err := sess.record(true, dir, fsys); err != nil {
					t.Fatalf("record: %v", err)
				}
				for b := 0; sess.info().Cycle < fd.cycles; b++ {
					n := min([]uint64{1, 7, 64, 200, 3}[b%5], fd.cycles-sess.info().Cycle)
					if _, _, err := sess.step(ctx, n); err != nil {
						t.Fatalf("step: %v", err)
					}
				}
				sess.traceFlush()
				rd, err := tracedb.Open(dir, fsys)
				if err != nil {
					t.Fatalf("open recording: %v", err)
				}
				for c := uint64(0); c <= fd.cycles; c++ {
					got, err := rd.Row(c)
					if err != nil {
						t.Fatalf("row %d: %v", c, err)
					}
					if !slices.Equal(got, want[c]) {
						t.Fatalf("cycle %d: recorded %v, interp %v", c, got, want[c])
					}
				}
				checkFiredQueries(t, srv, sess, d, want)
			})
		}
	}
}

// checkFiredQueries asks first, last and count fired(rule) of sess's
// recording for every rule and compares with a scan of the replay rows.
func checkFiredQueries(t *testing.T, srv *Server, sess *session, d *ast.Design, want [][]uint64) {
	t.Helper()
	nregs := len(d.Registers)
	for i, rule := range d.Rules {
		var first, last, count uint64
		for c, row := range want {
			if row[nregs+i/64]>>(i%64)&1 == 1 {
				if count == 0 {
					first = uint64(c)
				}
				last = uint64(c)
				count++
			}
		}
		for _, mode := range []string{tracedb.ModeFirst, tracedb.ModeLast, tracedb.ModeCount} {
			q := mode + " fired(" + rule.Name + ")"
			res, err := srv.traceQueryOp(nil, sess, TraceQueryRequest{Query: q})
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			switch {
			case mode == tracedb.ModeCount && res.Count != count,
				mode == tracedb.ModeFirst && (res.Matched != (count > 0) || res.Cycle != first),
				mode == tracedb.ModeLast && (res.Matched != (count > 0) || res.Cycle != last):
				t.Fatalf("%s = %+v; replay: first %d, last %d, count %d", q, res, first, last, count)
			}
		}
	}
	_, err := srv.traceQueryOp(nil, sess, TraceQueryRequest{Query: "count fired(no_such_rule)"})
	if status, _ := errorStatus(err); status != http.StatusBadRequest {
		t.Fatalf("fired() of an unknown rule: %v (status %d), want 400", err, status)
	}
}

// TestFormat1RecordingServed: a session whose store holds a recording
// written before fired-rule columns existed (tracedb's testdata/collatz-v1,
// format 1) still gets register queries answered and the same VCD bytes;
// a fired(rule) query is a 400 that says the recording predates fired-rule
// columns; and re-enabling recording resumes it with register-only rows.
func TestFormat1RecordingServed(t *testing.T) {
	const fixture = "../tracedb/testdata/collatz-v1"
	srv, err := New(Config{StoreDir: t.TempDir()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	sess, err := newSession("old", CreateRequest{Catalog: "collatz"}, srv.env())
	if err != nil {
		t.Fatalf("newSession: %v", err)
	}
	if _, err := srv.admit(sess); err != nil {
		t.Fatalf("admit: %v", err)
	}
	dir, fsys, err := srv.traceHome(sess.id)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
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
	want := replayFired(t, catalogInstance("collatz")(t), 400)
	query := func(q string) (TraceQueryResponse, error) {
		return srv.traceQueryOp(nil, sess, TraceQueryRequest{Query: q})
	}
	checkRegs := func(last uint64) {
		t.Helper()
		var count uint64
		for _, row := range want[:last+1] {
			if row[2] == 1 { // done
				count++
			}
		}
		res, err := query("count done.rd0() == 1'd1")
		if err != nil || res.Count != count {
			t.Fatalf("count done over 0..%d = %+v, %v; replay says %d", last, res, err, count)
		}
		_, err = query("first fired(" + sess.design().Rules[0].Name + ")")
		if status, _ := errorStatus(err); status != http.StatusBadRequest || err == nil || !strings.Contains(err.Error(), "predates fired-rule columns") {
			t.Fatalf("fired() on a format 1 recording: %v (status %d), want a 400 naming the format", err, status)
		}
	}
	checkRegs(199)
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/sessions/old/trace/vcd?from=0&to=199", nil))
	golden, err := os.ReadFile("../tracedb/testdata/collatz-v1.vcd")
	if err != nil {
		t.Fatal(err)
	}
	if rr.Code != http.StatusOK || !bytes.Equal(rr.Body.Bytes(), golden) {
		t.Fatalf("trace/vcd of the format 1 recording: status %d, %d bytes; want the %d bytes it was written with", rr.Code, rr.Body.Len(), len(golden))
	}

	// Resume: the session reaches the recording's last cycle and records on.
	ctx := context.Background()
	if _, _, err := sess.step(ctx, 199); err != nil {
		t.Fatalf("step: %v", err)
	}
	if err := sess.record(true, dir, fsys); err != nil {
		t.Fatalf("record: %v", err)
	}
	if _, _, err := sess.step(ctx, 201); err != nil {
		t.Fatalf("step: %v", err)
	}
	sess.traceFlush()
	rd, err := tracedb.Open(dir, fsys)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if m := rd.Meta(); m.Version != 1 || len(m.Rules) != 0 {
		t.Fatalf("resumed recording meta = %+v, want format 1 without rules", m)
	}
	nregs := len(sess.design().Registers)
	for c := uint64(0); c <= 400; c++ {
		got, err := rd.Row(c)
		if err != nil || !slices.Equal(got, want[c][:nregs]) {
			t.Fatalf("row %d = %v, %v; replay %v", c, got, err, want[c][:nregs])
		}
	}
	checkRegs(400)
}

package server

// White-box tests for batched debug stepping: breakpoints and the recorder
// ride inside run-until chunks, on the in-process and the native tier
// alike, and a native batch lost to a crash leaves no trace behind.

import (
	"context"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"cuttlego/internal/native"
	"cuttlego/internal/tracedb"
)

// armedSession creates and admits a session with one breakpoint and
// recording on.
func armedSession(t *testing.T, srv *Server, id string, req CreateRequest, cond string) *session {
	t.Helper()
	sess, err := newSession(id, req, srv.env())
	if err != nil {
		t.Fatalf("newSession(%s): %v", id, err)
	}
	if _, err := srv.admit(sess); err != nil {
		t.Fatalf("admit(%s): %v", id, err)
	}
	if err := sess.setBreak(BreakRequest{Cond: cond}); err != nil {
		t.Fatalf("break(%s): %v", id, err)
	}
	dir, fsys, err := srv.traceHome(id)
	if err != nil {
		t.Fatalf("traceHome(%s): %v", id, err)
	}
	if err := sess.record(true, dir, fsys); err != nil {
		t.Fatalf("record(%s): %v", id, err)
	}
	return sess
}

// sameRecording demands that two sessions recorded the same rows, fired-rule
// words included, over the same cycles.
func sameRecording(t *testing.T, srv *Server, a, b *session) {
	t.Helper()
	var rd [2]*tracedb.Reader
	var last [2]uint64
	for i, s := range []*session{a, b} {
		s.traceFlush()
		dir, fsys, err := srv.traceHome(s.id)
		if err != nil {
			t.Fatalf("traceHome(%s): %v", s.id, err)
		}
		if rd[i], err = tracedb.Open(dir, fsys); err != nil {
			t.Fatalf("open recording of %s: %v", s.id, err)
		}
		first, l, ok := rd[i].Bounds()
		if !ok || first != 0 {
			t.Fatalf("%s: recording starts at %d (ok=%v), want 0", s.id, first, ok)
		}
		last[i] = l
	}
	if last[0] != last[1] || last[0] != a.info().Cycle {
		t.Fatalf("recordings end at %d and %d, sessions at cycle %d", last[0], last[1], a.info().Cycle)
	}
	if cyc, diverged, err := tracedb.FirstDivergence(rd[0], rd[1], 0, last[0]); err != nil || diverged {
		t.Fatalf("recordings diverge at cycle %d (err %v)", cyc, err)
	}
	for cyc := uint64(0); cyc <= last[0]; cyc++ {
		ra, err := rd[0].Row(cyc)
		if err != nil {
			t.Fatalf("%s row %d: %v", a.id, cyc, err)
		}
		rb, err := rd[1].Row(cyc)
		if err != nil {
			t.Fatalf("%s row %d: %v", b.id, cyc, err)
		}
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("cycle %d: %s recorded %v, %s recorded %v", cyc, a.id, ra, b.id, rb)
		}
	}
}

// TestBreakpointPredicateParityAcrossTiers runs msi under two conditional
// breakpoints, one of them on a rule firing (fired(rule)), with recording
// on, on cuttlesim, rtlsim, interp and the native tier from cycle 0. Every
// step response — cycles run, breakpoint stop, fired rules — the final
// digest and the recorded rows, fired-rule words included, must be
// identical, and the servo's commit rule profile must equal cuttlesim's
// (activity level, which parks rules as the servo does) over the same
// cycles, which shows a native batch never runs past a hit.
func TestBreakpointPredicateParityAcrossTiers(t *testing.T) {
	srv, err := New(Config{StoreDir: t.TempDir(), NativeCacheDir: t.TempDir()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	const cond = "c0_ops_done.rd0() == 32'd40 | c1_ops_done.rd0() == 32'd77 | c0_ops_done.rd0() == 32'd300"
	// c0_handle_down commits with c0 at 120 operations once, at cycle 715.
	const firedCond = "fired(c0_handle_down) & c0_ops_done.rd0() == 32'd120"
	cs := armedSession(t, srv, "cs", CreateRequest{Catalog: "msi", Level: "activity"}, cond)
	others := []*session{
		armedSession(t, srv, "nat", CreateRequest{Catalog: "msi", Engine: "native"}, cond),
		armedSession(t, srv, "rt", CreateRequest{Catalog: "msi", Engine: "rtlsim"}, cond),
		armedSession(t, srv, "ip", CreateRequest{Catalog: "msi", Engine: "interp"}, cond),
	}
	for _, s := range append([]*session{cs}, others...) {
		if err := s.setBreak(BreakRequest{Cond: firedCond}); err != nil {
			t.Fatalf("break(%s): %v", s.id, err)
		}
	}
	ctx := context.Background()
	hits, firedAt := 0, uint64(0)
	for b := 0; cs.info().Cycle < 5000; b++ {
		n := []uint64{1, 50, 64, 200, 1000, 3, 700}[b%7]
		want, err := cs.run(ctx, n)
		if err != nil {
			t.Fatalf("cuttlesim step: %v", err)
		}
		for _, o := range others {
			got, err := o.run(ctx, n)
			if err != nil {
				t.Fatalf("%s step: %v", o.id, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d of %d cycles: %s %+v, cuttlesim %+v", b, n, o.id, got, want)
			}
		}
		if want.Stopped != "" {
			hits++
		}
		if strings.Contains(want.Stopped, "fired(") {
			firedAt = want.Cycle
		}
	}
	if hits < 4 || firedAt != 715 {
		t.Fatalf("breakpoints hit %d times, the fired one at cycle %d; want at least 4 hits, the fired one at 715", hits, firedAt)
	}
	nat := others[0]
	for _, o := range others {
		if a, b := cs.info(), o.info(); a.Digest != b.Digest || a.Cycle != b.Cycle {
			t.Fatalf("final state: cuttlesim cycle %d digest %s, %s cycle %d digest %s", a.Cycle, a.Digest, o.id, b.Cycle, b.Digest)
		}
		sameRecording(t, srv, cs, o)
	}
	pa, err := cs.profile()
	if err != nil {
		t.Fatalf("cuttlesim profile: %v", err)
	}
	pb, err := nat.profile()
	if err != nil {
		t.Fatalf("native profile: %v", err)
	}
	// Cuttlesim counts a parked rule's skipped slot as an attempt; the servo
	// counts it only as a skip.
	for i := range pa.Rules {
		a, b := pa.Rules[i], pb.Rules[i]
		if a.Rule != b.Rule || a.Attempts != b.Attempts+b.Skipped || a.Skipped != b.Skipped || a.Commits != b.Commits {
			t.Errorf("rule %s: cuttlesim %+v, native %+v", a.Rule, a, b)
		}
	}
}

// TestPromotedSessionDemotesOnCrashMidBatch kills a promoted, recording session's
// simulator subprocess before its next run-until batch. The session must
// demote, replay to the cycle the client was credited with and keep
// stepping, and its recording must match a reference session's row for
// row: a gap or a duplicate row would have failed the recorder's append.
func TestPromotedSessionDemotesOnCrashMidBatch(t *testing.T) {
	srv, err := New(Config{StoreDir: t.TempDir(), NativeCacheDir: t.TempDir(), PromoteAfter: 128})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	const never = "x.rd0() == 32'd0"
	sess := armedSession(t, srv, "s1", CreateRequest{Catalog: "collatz"}, never)
	ref := armedSession(t, srv, "s2", CreateRequest{Catalog: "collatz", Engine: "interp"}, never)
	stepUntilPromoted(t, sess)

	sess.mu.Lock()
	ne, ok := underlying(sess.eng).(*native.Engine)
	sess.mu.Unlock()
	if !ok {
		t.Fatalf("promoted session is not running a native engine")
	}
	if err := syscall.Kill(ne.Pid(), syscall.SIGKILL); err != nil {
		t.Fatalf("kill subprocess: %v", err)
	}
	for _, n := range []uint64{300, 77} {
		ran, stopped, err := sess.step(context.Background(), n)
		if err != nil || stopped != "" || ran != n {
			t.Fatalf("step across crash: ran=%d stopped=%q err=%v", ran, stopped, err)
		}
	}
	if inf := sess.info(); inf.Tier != "" || inf.State != "" {
		t.Fatalf("session should be healthy and back in-process: %+v", inf)
	}
	if n := srv.tier.demotions.Load(); n != 1 {
		t.Fatalf("demotions counter = %d, want 1", n)
	}
	if got, want := catchUp(t, sess, ref); got != want {
		t.Fatalf("digest diverged across demotion: %s vs %s", got, want)
	}
	sameRecording(t, srv, sess, ref)
}

package server

// White-box tests for the execution tiers: transparent promotion of hot
// sessions onto AOT-compiled subprocesses, crash demotion back onto the
// in-process engine, and subprocess reaping at daemon shutdown. These live
// inside the package because they need the session internals (the tier
// fields, the subprocess pid) that the HTTP surface deliberately hides.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"syscall"
	"testing"
	"time"

	"cuttlego/internal/native"
)

// promoteTestServer builds a daemon with the native tier enabled and a low
// promotion threshold, plus a session pair: the candidate (default
// cuttlesim, promotable) and an interp reference that never promotes.
func promoteTestServer(t *testing.T, promoteAfter uint64) (*Server, *session, *session) {
	t.Helper()
	srv, err := New(Config{NativeCacheDir: t.TempDir(), PromoteAfter: promoteAfter})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	sess, err := newSession("s1", CreateRequest{Catalog: "collatz"}, srv.env())
	if err != nil {
		t.Fatalf("newSession: %v", err)
	}
	ref, err := newSession("s2", CreateRequest{Catalog: "collatz", Engine: "interp"}, srv.env())
	if err != nil {
		t.Fatalf("newSession(interp): %v", err)
	}
	if _, err := srv.admit(sess); err != nil {
		t.Fatalf("admit: %v", err)
	}
	if _, err := srv.admit(ref); err != nil {
		t.Fatalf("admit(ref): %v", err)
	}
	return srv, sess, ref
}

// stepUntilPromoted steps the session in small batches until it lands on
// the native tier (the compile is asynchronous, so this polls).
func stepUntilPromoted(t *testing.T, sess *session) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		if _, _, err := sess.step(context.Background(), 64); err != nil {
			t.Fatalf("step: %v", err)
		}
		sess.mu.Lock()
		tier := sess.state().tier()
		sess.mu.Unlock()
		if tier == "native" {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("session never promoted to the native tier")
}

// catchUp steps the reference session to exactly the candidate's cycle and
// returns both digests for comparison.
func catchUp(t *testing.T, sess, ref *session) (got, want string) {
	t.Helper()
	cyc := sess.info().Cycle
	refCyc := ref.info().Cycle
	if refCyc > cyc {
		t.Fatalf("reference session ran ahead: %d > %d", refCyc, cyc)
	}
	if _, _, err := ref.step(context.Background(), cyc-refCyc); err != nil {
		t.Fatalf("reference step: %v", err)
	}
	return sess.info().Digest, ref.info().Digest
}

// TestPromotionDigestParity drives a cuttlesim session past the promotion
// threshold and checks the contract: the session transparently lands on the
// native tier with zero observable state change — at every compared cycle
// its digest equals an interp reference that never left the process.
func TestPromotionDigestParity(t *testing.T) {
	srv, sess, ref := promoteTestServer(t, 128)

	// Below the threshold nothing happens.
	if _, _, err := sess.step(context.Background(), 100); err != nil {
		t.Fatalf("step: %v", err)
	}
	if inf := sess.info(); inf.Tier != "" {
		t.Fatalf("promoted below threshold: %+v", inf)
	}

	stepUntilPromoted(t, sess)
	if got, want := catchUp(t, sess, ref); got != want {
		t.Fatalf("digest diverged across promotion: native %s, interp %s", got, want)
	}
	if inf := sess.info(); inf.Tier != "native" || !inf.Durable {
		t.Fatalf("promoted session info wrong: %+v", inf)
	}
	if n := srv.tier.promotions.Load(); n != 1 {
		t.Fatalf("promotions counter = %d, want 1", n)
	}

	// The tier swap must stay invisible to the rest of the surface:
	// stepping, snapshots, and reverse execution keep working.
	if ran, _, err := sess.step(context.Background(), 500); err != nil || ran != 500 {
		t.Fatalf("post-promotion step: ran %d, err %v", ran, err)
	}
	if err := sess.reverse(context.Background(), 100); err != nil {
		t.Fatalf("post-promotion reverse: %v", err)
	}
	if _, _, err := sess.step(context.Background(), 100); err != nil {
		t.Fatalf("step after reverse: %v", err)
	}
	if got, want := catchUp(t, sess, ref); got != want {
		t.Fatalf("digest diverged after reverse on the native tier: %s vs %s", got, want)
	}
}

// TestPromotedSessionDemotesOnCrash kills the promoted subprocess out from
// under a session and checks that the next step transparently demotes: the
// in-process engine is rebuilt from the snapshot ring, the step completes
// in full, and state stays bit-identical to the reference.
func TestPromotedSessionDemotesOnCrash(t *testing.T) {
	srv, sess, ref := promoteTestServer(t, 128)
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

	ran, stopped, err := sess.step(context.Background(), 300)
	if err != nil || stopped != "" || ran != 300 {
		t.Fatalf("step across crash: ran=%d stopped=%q err=%v", ran, stopped, err)
	}
	if inf := sess.info(); inf.Tier != "" || inf.State != "" {
		t.Fatalf("session should be healthy and back in-process: %+v", inf)
	}
	if got, want := catchUp(t, sess, ref); got != want {
		t.Fatalf("digest diverged across demotion: %s vs %s", got, want)
	}
	if n := srv.tier.demotions.Load(); n != 1 {
		t.Fatalf("demotions counter = %d, want 1", n)
	}
	// Demotion is sticky: the session must not bounce back onto a binary
	// that just crashed.
	if _, _, err := sess.step(context.Background(), 256); err != nil {
		t.Fatalf("step after demotion: %v", err)
	}
	sess.mu.Lock()
	noPromote, tier := sess.state().phase == phasePinned, sess.state().tier()
	sess.mu.Unlock()
	if !noPromote || tier != "" {
		t.Fatalf("demoted session re-promoted: noPromote=%v tier=%q", noPromote, tier)
	}
}

// TestNativeEngineSessionHTTP exercises the explicit native engine through
// the HTTP surface: create, step, digest parity with interp, the profile
// endpoint, and the tier/metrics reporting.
func TestNativeEngineSessionHTTP(t *testing.T) {
	srv, err := New(Config{NativeCacheDir: t.TempDir()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(path string, body, into any) {
		t.Helper()
		data, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			var e ErrorResponse
			_ = json.NewDecoder(resp.Body).Decode(&e)
			t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, e.Error)
		}
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("POST %s: decode: %v", path, err)
		}
	}
	get := func(path string, into any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}

	var nat, ref SessionInfo
	post("/v1/sessions", CreateRequest{Catalog: "collatz", Engine: "native"}, &nat)
	if nat.Tier != "native" || nat.Engine != "native" {
		t.Fatalf("native session info: %+v", nat)
	}
	post("/v1/sessions", CreateRequest{Catalog: "collatz", Engine: "interp"}, &ref)

	var step StepResponse
	post("/v1/sessions/"+nat.ID+"/step", StepRequest{Cycles: 500}, &step)
	if step.Ran != 500 {
		t.Fatalf("native step ran %d, want 500", step.Ran)
	}
	post("/v1/sessions/"+ref.ID+"/step", StepRequest{Cycles: 500}, &step)

	get("/v1/sessions/"+nat.ID, &nat)
	get("/v1/sessions/"+ref.ID, &ref)
	if nat.Cycle != 500 || nat.Digest != ref.Digest {
		t.Fatalf("native/interp mismatch at cycle 500: %+v vs %+v", nat, ref)
	}

	var prof ProfileResponse
	get("/v1/sessions/"+nat.ID+"/profile", &prof)
	var commits uint64
	for _, r := range prof.Rules {
		commits += r.Commits
	}
	if len(prof.Rules) == 0 || commits == 0 {
		t.Fatalf("native profile empty: %+v", prof)
	}
}

// TestMetricsCountPromotions checks that tier transitions surface in the
// /metrics document.
func TestMetricsCountPromotions(t *testing.T) {
	srv, sess, _ := promoteTestServer(t, 128)
	stepUntilPromoted(t, sess)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if m.Promotions != 1 {
		t.Fatalf("metrics promotions = %d, want 1", m.Promotions)
	}
}

// TestCloseReapsSubprocesses is the no-orphan regression test: a daemon
// with live native sessions must not leave simulator subprocesses behind
// when it shuts down.
func TestCloseReapsSubprocesses(t *testing.T) {
	srv, err := New(Config{NativeCacheDir: t.TempDir()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sess, err := newSession("s1", CreateRequest{Catalog: "collatz", Engine: "native"}, srv.env())
	if err != nil {
		t.Fatalf("newSession: %v", err)
	}
	if _, err := srv.admit(sess); err != nil {
		t.Fatalf("admit: %v", err)
	}
	sess.mu.Lock()
	ne := underlying(sess.eng).(*native.Engine)
	pid := ne.Pid()
	sess.mu.Unlock()
	if native.Live() == 0 {
		t.Fatalf("expected a live subprocess before shutdown")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := native.Live(); n != 0 {
		t.Fatalf("%d subprocesses survived shutdown", n)
	}
	if err := syscall.Kill(pid, 0); err != syscall.ESRCH {
		t.Fatalf("subprocess %d still exists after shutdown (kill(0) = %v)", pid, err)
	}
}

// TestPromoteAfterRequiresCache: a promotion threshold without a compile
// cache is a configuration error, not a silent no-op.
func TestPromoteAfterRequiresCache(t *testing.T) {
	if _, err := New(Config{PromoteAfter: 100}); err == nil {
		t.Fatalf("New accepted PromoteAfter without NativeCacheDir")
	}
	// And the native engine is refused outright when the tier is off.
	srv, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	if _, err := newSession("s1", CreateRequest{Catalog: "collatz", Engine: "native"}, srv.env()); err == nil {
		t.Fatalf("native session created without a native cache")
	}
}

package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"cuttlego/internal/native"
)

// call sends one request straight to a daemon's handler.
func call(t *testing.T, srv *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// liveSession creates and admits a collatz session on engine, stepped to
// cycle n.
func liveSession(t *testing.T, srv *Server, id, engine string, n uint64) *session {
	t.Helper()
	sess, err := newSession(id, CreateRequest{Catalog: "collatz", Engine: engine}, srv.env())
	if err != nil {
		t.Fatalf("newSession %s: %v", id, err)
	}
	if _, err := srv.admit(sess); err != nil {
		t.Fatalf("admit %s: %v", id, err)
	}
	if n > 0 {
		if _, _, err := sess.step(context.Background(), n); err != nil {
			t.Fatalf("step %s: %v", id, err)
		}
	}
	return sess
}

// TestLifecycleStepQueuedBehindRetirement: a request that looked a session
// up just before it was evicted, released, or exported with release must
// not be acknowledged on the retired object and then lost. Its work has to
// land on the state a later lookup sees — the resurrected session.
func TestLifecycleStepQueuedBehindRetirement(t *testing.T) {
	retirements := map[string]func(t *testing.T, srv *Server, sess *session){
		"evict": func(t *testing.T, srv *Server, sess *session) {
			liveSession(t, srv, "s2", "", 0) // MaxSessions 1: evicts s1
		},
		"release": func(t *testing.T, srv *Server, sess *session) {
			if rec := call(t, srv, "POST", "/v1/sessions/s1/release", ""); rec.Code != http.StatusOK {
				t.Fatalf("release: %d %s", rec.Code, rec.Body)
			}
		},
		"export-release": func(t *testing.T, srv *Server, sess *session) {
			if rec := call(t, srv, "POST", "/v1/sessions/s1/export", `{"release":true}`); rec.Code != http.StatusOK {
				t.Fatalf("export: %d %s", rec.Code, rec.Body)
			}
		},
	}
	for name, retire := range retirements {
		t.Run(name, func(t *testing.T) {
			srv, err := New(Config{StoreDir: t.TempDir(), MaxSessions: 1})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			t.Cleanup(func() { _ = srv.Close() })
			liveSession(t, srv, "s1", "", 100)
			sess, err := srv.lookup("s1")
			if err != nil {
				t.Fatalf("lookup: %v", err)
			}
			retire(t, srv, sess)

			if ran, _, err := sess.step(context.Background(), 7); err == nil {
				t.Fatalf("a step on the retired session object was acknowledged (ran %d)", ran)
			}
			resp, err := srv.runStep(httptest.NewRequest("POST", "/v1/sessions/s1/step", nil), sess, 50)
			if err != nil || resp.Ran != 50 || resp.Cycle != 150 {
				t.Fatalf("queued step: %+v, err %v; want ran 50 at cycle 150", resp, err)
			}
			again, err := srv.lookup("s1")
			if err != nil {
				t.Fatalf("lookup after step: %v", err)
			}
			if inf := again.info(); inf.Cycle != 150 {
				t.Fatalf("acknowledged step lost: s1 is at cycle %d, want 150", inf.Cycle)
			}
		})
	}
}

// TestLifecycleDeletedForkBuildsNoEngine: a lazy fork deleted while a
// request held it must not materialize an engine afterwards — nothing
// would ever close it, and on the native tier it would be an orphan
// subprocess.
func TestLifecycleDeletedForkBuildsNoEngine(t *testing.T) {
	for _, engine := range []string{"", "native"} {
		t.Run("engine="+engine, func(t *testing.T) {
			srv, err := New(Config{StoreDir: t.TempDir(), NativeCacheDir: t.TempDir()})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			t.Cleanup(func() { _ = srv.Close() })
			liveSession(t, srv, "parent", engine, 10) // not "s<N>": the fork's id is daemon-minted
			rec := call(t, srv, "POST", "/v1/sessions/parent/fork", "")
			if rec.Code != http.StatusCreated {
				t.Fatalf("fork: %d %s", rec.Code, rec.Body)
			}
			var inf SessionInfo
			if err := json.Unmarshal(rec.Body.Bytes(), &inf); err != nil || !inf.Cow {
				t.Fatalf("fork info %s (err %v); want a lazy fork", rec.Body, err)
			}
			fork, err := srv.lookup(inf.ID)
			if err != nil {
				t.Fatalf("lookup fork: %v", err)
			}
			procs := native.Live()
			if rec := call(t, srv, "DELETE", "/v1/sessions/"+inf.ID, ""); rec.Code != http.StatusOK {
				t.Fatalf("delete: %d %s", rec.Code, rec.Body)
			}

			if ran, _, err := fork.step(context.Background(), 10); err == nil {
				t.Fatalf("step on a deleted fork ran %d cycles", ran)
			}
			fork.mu.Lock()
			built := fork.eng != nil
			fork.mu.Unlock()
			if built {
				t.Fatalf("a deleted fork built an engine")
			}
			if n := native.Live(); n != procs {
				t.Fatalf("%d simulator subprocesses after the step, want %d", n, procs)
			}
		})
	}
}

// TestLifecycleCloseSparesOtherDaemons: two daemons in one process each
// run a native session; closing one must reap its own subprocess — even
// under a wedged session, whose mu a runaway step holds — and leave the
// other daemon's session stepping.
func TestLifecycleCloseSparesOtherDaemons(t *testing.T) {
	var srvs [2]*Server
	var sess [2]*session
	for i := range srvs {
		srv, err := New(Config{NativeCacheDir: t.TempDir()})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		srvs[i], sess[i] = srv, liveSession(t, srv, "s1", "native", 10)
	}
	sess[0].mu.Lock() // the runaway step
	pid := underlying(sess[0].eng).(*native.Engine).Pid()
	srvs[0].wedge(sess[0], "test")
	err := srvs[0].Close()
	sess[0].mu.Unlock()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := syscall.Kill(pid, 0); err != syscall.ESRCH {
		t.Fatalf("closed daemon's subprocess %d still exists (kill(0) = %v)", pid, err)
	}
	if ran, _, err := sess[1].step(context.Background(), 50); err != nil || ran != 50 {
		t.Fatalf("other daemon's session after Close: ran %d, err %v", ran, err)
	}
	if inf := sess[1].info(); inf.State != "" || inf.Cycle != 60 {
		t.Fatalf("other daemon's session: %+v; want healthy at cycle 60", inf)
	}
}

// TestLifecycleEvictionStormLosesNoStep: more sessions than table slots,
// each stepped by its own client while the others' resurrections keep
// evicting it. Every acknowledged step must show up in the session's final
// cycle count — eviction is invisible to clients apart from latency. (A
// step may still be refused with 429 while every other slot is mid-eviction;
// a refused step was never acknowledged.)
func TestLifecycleEvictionStormLosesNoStep(t *testing.T) {
	srv, err := New(Config{StoreDir: t.TempDir(), MaxSessions: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	const clients, steps, cycles = 6, 25, 10
	for i := 0; i < clients; i++ {
		if rec := call(t, srv, "POST", "/v1/sessions", fmt.Sprintf(`{"catalog":"collatz","id":"c%d"}`, i)); rec.Code != http.StatusCreated {
			t.Fatalf("create: %d %s", rec.Code, rec.Body)
		}
	}
	acked := make([]uint64, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < steps; j++ {
				rec := call(t, srv, "POST", fmt.Sprintf("/v1/sessions/c%d/step", i), fmt.Sprintf(`{"cycles":%d}`, cycles))
				var resp StepResponse
				if rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &resp) == nil {
					acked[i] += resp.Ran
				}
			}
		}(i)
	}
	wg.Wait()
	var total uint64
	for i := 0; i < clients; i++ {
		total += acked[i]
		rec := call(t, srv, "GET", fmt.Sprintf("/v1/sessions/c%d", i), "")
		var inf SessionInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &inf); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("info c%d: %d %s", i, rec.Code, rec.Body)
		}
		if inf.Cycle != acked[i] {
			t.Errorf("c%d is at cycle %d, but %d cycles were acknowledged", i, inf.Cycle, acked[i])
		}
	}
	if total == 0 {
		t.Fatalf("no step was acknowledged")
	}
}

// TestLifecycleReleaseRefusesNonDurable: release retires a session to its
// checkpoint, so a session that cannot be checkpointed is refused with 409
// and stays live rather than being retired and lost.
func TestLifecycleReleaseRefusesNonDurable(t *testing.T) {
	srv, err := New(Config{StoreDir: t.TempDir()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	if rec := call(t, srv, "POST", "/v1/sessions", `{"catalog":"rv32i","id":"tb"}`); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	if rec := call(t, srv, "POST", "/v1/sessions/tb/release", ""); rec.Code != http.StatusConflict {
		t.Fatalf("release of a testbench-driven session: %d %s, want 409", rec.Code, rec.Body)
	}
	if rec := call(t, srv, "POST", "/v1/sessions/tb/step", `{"cycles":10}`); rec.Code != http.StatusOK {
		t.Fatalf("step after refused release: %d %s", rec.Code, rec.Body)
	}
}

// TestLifecycleWedgedSessionNeverBlocks: a wedged session's mu may be held
// forever by its runaway step, so every request against it must answer
// from the state alone — info and list describe it, delete drops it, and
// everything else is 409 — without waiting on that mu.
func TestLifecycleWedgedSessionNeverBlocks(t *testing.T) {
	srv, err := New(Config{StoreDir: t.TempDir()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	sess := liveSession(t, srv, "w", "", 10)
	sess.mu.Lock() // the runaway step
	defer sess.mu.Unlock()
	srv.wedge(sess, "test")

	for _, req := range []struct {
		method, path, body string
		want               int
	}{
		{"GET", "/v1/sessions/w", "", http.StatusOK},
		{"GET", "/v1/sessions", "", http.StatusOK},
		{"POST", "/v1/sessions/w/step", `{"cycles":1}`, http.StatusConflict},
		{"POST", "/v1/sessions/w/restore", `{"checkpoint":"c0"}`, http.StatusConflict},
		{"POST", "/v1/sessions/w/checkpoint", "", http.StatusConflict},
		{"GET", "/v1/sessions/w/trace/status", "", http.StatusOK},
		{"POST", "/v1/sessions/w/export", `{}`, http.StatusConflict},
		{"DELETE", "/v1/sessions/w", "", http.StatusOK},
	} {
		done := make(chan int, 1)
		go func() { done <- call(t, srv, req.method, req.path, req.body).Code }()
		select {
		case code := <-done:
			if code != req.want {
				t.Errorf("%s %s on a wedged session: %d, want %d", req.method, req.path, code, req.want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s %s blocked on a wedged session", req.method, req.path)
		}
	}
}

// TestLifecycleForkIDsUniqueAcrossDaemons: daemons that share a store each
// mint fork ids; a fork on one must never take an id another already
// persisted, or their checkpoints overwrite each other.
func TestLifecycleForkIDsUniqueAcrossDaemons(t *testing.T) {
	store := t.TempDir()
	var srvs []*Server
	for _, parent := range []string{"a", "b"} { // both up before either forks
		srv, err := New(Config{StoreDir: store})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		liveSession(t, srv, parent, "", 10)
		srvs = append(srvs, srv)
	}
	var ids []string
	for i, parent := range []string{"a", "b"} {
		rec := call(t, srvs[i], "POST", "/v1/sessions/"+parent+"/fork", "")
		var inf SessionInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &inf); err != nil || rec.Code != http.StatusCreated {
			t.Fatalf("fork %s: %d %s", parent, rec.Code, rec.Body)
		}
		ids = append(ids, inf.ID)
	}
	if ids[0] == ids[1] {
		t.Fatalf("two daemons sharing a store both minted fork id %q", ids[0])
	}
}

// TestLifecycleCreateIDsUniqueAcrossDaemons: daemons sharing a store each
// mint ids for creates that name none. Creates racing on two daemons must
// never take the same id, a minted id must skip one that already has
// durable state, and a restart over a store holding untagged "s<N>"
// sessions still seeds the counter past them.
func TestLifecycleCreateIDsUniqueAcrossDaemons(t *testing.T) {
	store := t.TempDir()
	newDaemon := func() *Server {
		srv, err := New(Config{StoreDir: store})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		return srv
	}
	create := func(srv *Server, body string) string {
		rec := call(t, srv, "POST", "/v1/sessions", body)
		var inf SessionInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &inf); err != nil || rec.Code != http.StatusCreated {
			t.Errorf("create %s: %d %s", body, rec.Code, rec.Body)
		}
		return inf.ID
	}
	checkpoint := func(srv *Server, id string) {
		if rec := call(t, srv, "POST", "/v1/sessions/"+id+"/checkpoint", ""); rec.Code != http.StatusOK {
			t.Fatalf("checkpoint %s: %d %s", id, rec.Code, rec.Body)
		}
	}
	srvs := []*Server{newDaemon(), newDaemon()}
	const perDaemon = 4
	ids := make([][]string, len(srvs))
	var wg sync.WaitGroup
	for i, srv := range srvs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perDaemon {
				ids[i] = append(ids[i], create(srv, `{"catalog":"collatz"}`))
			}
		}()
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, list := range ids {
		for _, id := range list {
			if seen[id] {
				t.Fatalf("two creates on daemons sharing a store were both given id %q", id)
			}
			seen[id] = true
		}
	}

	// A client claims the id the first daemon would mint next; its minted
	// id must step past the durable session.
	a := srvs[0]
	a.mu.Lock()
	next := fmt.Sprintf("s%s%d", a.tag, a.nextID+1)
	a.mu.Unlock()
	if got := create(srvs[1], `{"catalog":"collatz","id":"`+next+`"}`); got != next {
		t.Fatalf("claimed id %q, got %q", next, got)
	}
	checkpoint(srvs[1], next)
	if got := create(a, `{"catalog":"collatz"}`); got == next {
		t.Fatalf("minted id %q already has durable state", got)
	}

	// A store written by a daemon that minted "s<N>" ids.
	checkpoint(a, create(a, `{"catalog":"collatz","id":"s41"}`))
	if c := newDaemon(); c.nextID < 41 {
		t.Fatalf("restart seeded nextID %d, want >= 41", c.nextID)
	}
}

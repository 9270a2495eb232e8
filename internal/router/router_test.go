package router_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cuttlego/internal/bench"
	"cuttlego/internal/cuttlesim"
	"cuttlego/internal/kclient"
	"cuttlego/internal/router"
	"cuttlego/internal/server"
	"cuttlego/internal/sim"
)

// fleet is a router in front of n real daemons sharing one durable store —
// the topology ksimd -router serves in production, shrunk into httptest.
type fleet struct {
	rt       *router.Router
	url      string
	dir      string            // the shared durable store
	specs    []string          // backend specs, for building replacement routers
	backends []*kclient.Client // direct per-backend clients, bypassing the router
	servers  []*httptest.Server
}

func newFleet(t *testing.T, n int, dir string) *fleet {
	t.Helper()
	f := &fleet{dir: dir}
	for i := 0; i < n; i++ {
		srv, err := server.New(server.Config{StoreDir: dir})
		if err != nil {
			t.Fatalf("server.New: %v", err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(func() { _ = srv.Close() })
		f.servers = append(f.servers, ts)
		f.backends = append(f.backends, kclient.New(ts.URL))
		f.specs = append(f.specs, ts.URL)
	}
	rt, err := router.New(router.Config{Backends: f.specs, StoreDir: dir})
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	rt.Probe() // mark backends up without starting the ticker
	t.Cleanup(rt.Close)
	f.rt = rt
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	f.url = rts.URL
	return f
}

// ownerOf finds which backend holds id live, asserting exactly one does.
func (f *fleet) ownerOf(t *testing.T, id string) int {
	t.Helper()
	owner := -1
	for i, bc := range f.backends {
		list, err := bc.List(context.Background())
		if err != nil {
			continue // dead backend
		}
		for _, s := range list {
			if s.ID == id {
				if owner >= 0 {
					t.Fatalf("session %s live on two backends (%d and %d)", id, owner, i)
				}
				owner = i
			}
		}
	}
	if owner < 0 {
		t.Fatalf("session %s live on no backend", id)
	}
	return owner
}

// referenceDigest runs a catalogue design in-process and returns the hex
// state digest after n cycles.
func referenceDigest(t *testing.T, catalog string, n uint64) string {
	t.Helper()
	bm, ok := bench.Lookup(catalog)
	if !ok {
		t.Fatalf("no catalogue design %q", catalog)
	}
	inst := bm.New()
	eng, err := cuttlesim.New(inst.Design, cuttlesim.Options{Level: cuttlesim.LStatic, Backend: cuttlesim.Closure})
	if err != nil {
		t.Fatalf("cuttlesim.New: %v", err)
	}
	sim.Run(eng, inst.Bench, n)
	return fmt.Sprintf("%016x", sim.StateDigest(eng))
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

// TestRouterRoutesSessionLifecycle drives create/step/fork/info/list/delete
// through the router and checks the fleet view stays coherent with the
// per-backend truth.
func TestRouterRoutesSessionLifecycle(t *testing.T) {
	ctx := context.Background()
	f := newFleet(t, 3, t.TempDir())
	c := kclient.New(f.url)

	info, err := c.Create(ctx, server.CreateRequest{Catalog: "collatz"})
	if err != nil {
		t.Fatalf("create via router: %v", err)
	}
	if !strings.HasPrefix(info.ID, "g") {
		t.Fatalf("router-minted id = %q, want g-prefixed", info.ID)
	}
	if _, err := c.Step(ctx, info.ID, 40); err != nil {
		t.Fatalf("step via router: %v", err)
	}
	got, err := c.Info(ctx, info.ID)
	if err != nil {
		t.Fatalf("info via router: %v", err)
	}
	if want := referenceDigest(t, "collatz", 40); got.Digest != want {
		t.Fatalf("routed digest = %s, want reference %s", got.Digest, want)
	}
	f.ownerOf(t, info.ID) // exactly one backend holds it

	fk, err := c.Fork(ctx, info.ID)
	if err != nil {
		t.Fatalf("fork via router: %v", err)
	}
	if !fk.Cow || fk.Digest != got.Digest || fk.Cycle != got.Cycle {
		t.Fatalf("routed fork = cow=%v %s@%d, want cow=true %s@%d", fk.Cow, fk.Digest, fk.Cycle, got.Digest, got.Cycle)
	}

	list, err := c.List(ctx)
	if err != nil {
		t.Fatalf("list via router: %v", err)
	}
	ids := map[string]bool{}
	for _, s := range list {
		ids[s.ID] = true
	}
	if !ids[info.ID] || !ids[fk.ID] {
		t.Fatalf("fleet list %v missing %s or %s", ids, info.ID, fk.ID)
	}

	var fm router.FleetMetrics
	if code := getJSON(t, f.url+"/metrics", &fm); code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	if fm.Backends != 3 || fm.BackendsUp != 3 {
		t.Fatalf("fleet metrics backends %d/%d up, want 3/3", fm.BackendsUp, fm.Backends)
	}
	if fm.Sessions != len(list) {
		t.Fatalf("aggregated sessions = %d, want %d", fm.Sessions, len(list))
	}

	if err := c.Delete(ctx, fk.ID); err != nil {
		t.Fatalf("delete via router: %v", err)
	}
	if _, err := c.Info(ctx, fk.ID); err == nil {
		t.Fatalf("deleted session still answers")
	}
}

// TestRouterMigrate moves a session between backends through the router's
// export→import orchestration and checks digest parity, owner handoff, and
// continued simulation on the destination.
func TestRouterMigrate(t *testing.T) {
	ctx := context.Background()
	f := newFleet(t, 2, t.TempDir())
	c := kclient.New(f.url)

	info, err := c.Create(ctx, server.CreateRequest{Catalog: "collatz"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := c.Step(ctx, info.ID, 60); err != nil {
		t.Fatalf("step: %v", err)
	}
	pre, err := c.Info(ctx, info.ID)
	if err != nil {
		t.Fatalf("info: %v", err)
	}
	srcIdx := f.ownerOf(t, info.ID)

	mig, err := c.Migrate(ctx, info.ID, "")
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if mig.From == mig.To {
		t.Fatalf("migrate stayed on %s", mig.From)
	}
	if mig.Digest != pre.Digest || mig.Cycle != pre.Cycle {
		t.Fatalf("migrate parity = %s@%d, want %s@%d", mig.Digest, mig.Cycle, pre.Digest, pre.Cycle)
	}
	dstIdx := f.ownerOf(t, info.ID)
	if dstIdx == srcIdx {
		t.Fatalf("session still owned by source backend %d after migration", srcIdx)
	}

	// The router must now route the id to the destination transparently.
	if _, err := c.Step(ctx, info.ID, 40); err != nil {
		t.Fatalf("step after migrate: %v", err)
	}
	got, err := c.Info(ctx, info.ID)
	if err != nil {
		t.Fatalf("info after migrate: %v", err)
	}
	if want := referenceDigest(t, "collatz", 100); got.Digest != want {
		t.Fatalf("post-migration digest = %s, want reference %s", got.Digest, want)
	}

	var fm router.FleetMetrics
	getJSON(t, f.url+"/metrics", &fm)
	if fm.Migrations != 1 {
		t.Fatalf("fleet migrations = %d, want 1", fm.Migrations)
	}

	// Migrating to an unknown backend must fail without touching the
	// session.
	var apiErr *kclient.APIError
	if _, err := c.Migrate(ctx, info.ID, "nosuch"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("migrate to unknown target: %v, want 404", err)
	}
	if _, err := c.Info(ctx, info.ID); err != nil {
		t.Fatalf("session damaged by refused migration: %v", err)
	}
}

// TestRouterRehomesOnBackendLoss kills a session's backend and expects the
// router to re-home the id onto a survivor, which resurrects it from the
// shared durable store at the last checkpointed digest.
func TestRouterRehomesOnBackendLoss(t *testing.T) {
	ctx := context.Background()
	f := newFleet(t, 2, t.TempDir())
	c := kclient.New(f.url)

	info, err := c.Create(ctx, server.CreateRequest{Catalog: "collatz"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := c.Step(ctx, info.ID, 24); err != nil {
		t.Fatalf("step: %v", err)
	}
	ck, err := c.Checkpoint(ctx, info.ID)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	owner := f.ownerOf(t, info.ID)

	// The owning node dies. Probe notices; the id's ring walk lands on the
	// survivor, which finds the checkpoint in the shared store.
	f.servers[owner].Close()
	f.rt.Probe()

	got, err := c.Info(ctx, info.ID)
	if err != nil {
		t.Fatalf("info after backend loss: %v", err)
	}
	if !got.Restored || got.Digest != ck.Digest || got.Cycle != ck.Cycle {
		t.Fatalf("rehomed = restored=%v %s@%d, want restored=true %s@%d",
			got.Restored, got.Digest, got.Cycle, ck.Digest, ck.Cycle)
	}
	if _, err := c.Step(ctx, info.ID, 6); err != nil {
		t.Fatalf("step after rehome: %v", err)
	}

	var hr router.HealthResponse
	if code := getJSON(t, f.url+"/healthz", &hr); code != http.StatusOK || hr.Status != "ok" {
		t.Fatalf("healthz with one survivor = %d %q, want 200 ok", code, hr.Status)
	}
	up := 0
	for _, ok := range hr.Backends {
		if ok {
			up++
		}
	}
	if up != 1 {
		t.Fatalf("healthz reports %d backends up, want 1", up)
	}
	var fm router.FleetMetrics
	getJSON(t, f.url+"/metrics", &fm)
	if fm.Rehomes == 0 {
		t.Fatalf("fleet metrics show no rehomes after backend loss")
	}

	// All backends down: the router must answer degraded, and session
	// requests must shed with 503, not hang.
	f.servers[1-owner].Close()
	f.rt.Probe()
	if code := getJSON(t, f.url+"/healthz", &hr); code != http.StatusServiceUnavailable || hr.Status != "degraded" {
		t.Fatalf("healthz with no backends = %d %q, want 503 degraded", code, hr.Status)
	}
	var apiErr *kclient.APIError
	if _, err := c.Info(ctx, info.ID); !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("info with no backends: %v, want 503", err)
	}
}

// TestRouterPlacementIsDeterministic: the same id must always land on the
// same backend while the fleet is stable, across two independently built
// routers over the same backend specs.
func TestRouterPlacementIsDeterministic(t *testing.T) {
	ctx := context.Background()
	f := newFleet(t, 3, t.TempDir())
	c := kclient.New(f.url)

	// Second router over the same fleet: placement must agree with the
	// first for every id — the ring is a pure function of the specs.
	rt2, err := router.New(router.Config{Backends: []string{
		f.servers[0].URL, f.servers[1].URL, f.servers[2].URL,
	}})
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	rt2.Probe()
	t.Cleanup(rt2.Close)
	rts2 := httptest.NewServer(rt2.Handler())
	t.Cleanup(rts2.Close)
	c2 := kclient.New(rts2.URL)

	for i := 0; i < 8; i++ {
		info, err := c.Create(ctx, server.CreateRequest{Catalog: "idle"})
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		owner := f.ownerOf(t, info.ID)
		// The twin router must find the session without a pin: same hash,
		// same backend.
		got, err := c2.Info(ctx, info.ID)
		if err != nil {
			t.Fatalf("twin router lookup %s (owner %d): %v", info.ID, owner, err)
		}
		if got.ID != info.ID {
			t.Fatalf("twin router found %q, want %q", got.ID, info.ID)
		}
	}
}

// restartRouter builds a fresh router over the same fleet and shared store,
// simulating a router process restart: in-memory state is gone, persisted
// pins must be re-learned.
func (f *fleet) restartRouter(t *testing.T) *kclient.Client {
	t.Helper()
	rt, err := router.New(router.Config{Backends: f.specs, StoreDir: f.dir})
	if err != nil {
		t.Fatalf("restarted router.New: %v", err)
	}
	rt.Probe()
	t.Cleanup(rt.Close)
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	return kclient.New(rts.URL)
}

// TestRouterTraceEndpoints: the trace-store API (record/status/query/diff/
// vcd) must work through the gateway exactly as against a daemon — the
// routes are one segment deeper than the generic {op} forward.
func TestRouterTraceEndpoints(t *testing.T) {
	ctx := context.Background()
	f := newFleet(t, 2, t.TempDir())
	c := kclient.New(f.url)

	info, err := c.Create(ctx, server.CreateRequest{Catalog: "collatz"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := c.TraceRecord(ctx, info.ID, true); err != nil {
		t.Fatalf("record via router: %v", err)
	}
	if _, err := c.Step(ctx, info.ID, 120); err != nil {
		t.Fatalf("step: %v", err)
	}
	st, err := c.TraceStatus(ctx, info.ID)
	if err != nil {
		t.Fatalf("status via router: %v", err)
	}
	if !st.Recording || st.Last != 120 {
		t.Fatalf("routed status = %+v, want live recording to cycle 120", st)
	}
	res, err := c.TraceQuery(ctx, info.ID, server.TraceQueryRequest{Query: "count x.rd0() == 32'd1"})
	if err != nil {
		t.Fatalf("query via router: %v", err)
	}
	if res.RowsEvaluated == 0 {
		t.Fatalf("routed query evaluated nothing: %+v", res)
	}
	body, err := c.TraceVCD(ctx, info.ID, 0, 50)
	if err != nil {
		t.Fatalf("vcd via router: %v", err)
	}
	vcdBytes, err := io.ReadAll(body)
	body.Close()
	if err != nil || !strings.Contains(string(vcdBytes), "$enddefinitions") {
		t.Fatalf("routed VCD (%d bytes, err %v) is not a VCD document", len(vcdBytes), err)
	}

	// The retired stream answers 410 through the gateway too, naming the
	// recording path that replaces it.
	gone, err := http.Get(f.url + "/v1/sessions/" + info.ID + "/trace?cycles=3&format=vcd")
	if err != nil {
		t.Fatalf("trace stream via router: %v", err)
	}
	msg, _ := io.ReadAll(gone.Body)
	gone.Body.Close()
	if gone.StatusCode != http.StatusGone || !strings.Contains(string(msg), "trace/record") || !strings.Contains(string(msg), "trace/vcd") {
		t.Fatalf("routed trace stream = %d %s, want 410 naming trace/record and trace/vcd", gone.StatusCode, msg)
	}

	// Diff against a fork: the fork is pinned to the parent's backend, and
	// both recordings live in the shared store.
	fk, err := c.Fork(ctx, info.ID)
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	if _, err := c.TraceRecord(ctx, fk.ID, true); err != nil {
		t.Fatalf("record fork via router: %v", err)
	}
	if _, err := c.Step(ctx, fk.ID, 40); err != nil {
		t.Fatalf("step fork: %v", err)
	}
	diff, err := c.TraceDiff(ctx, info.ID, server.TraceDiffRequest{Other: fk.ID})
	if err != nil {
		t.Fatalf("diff via router: %v", err)
	}
	if diff.Diverged {
		t.Fatalf("untouched fork diverged from parent: %+v", diff)
	}
}

// TestRouterPinsSurviveRestart: fork and migration pins persist in the
// shared store, so a restarted router keeps routing those sessions to
// their real home. A mis-route would resurrect a second copy from the
// shared store — ownerOf's exactly-one-live-owner check catches that.
func TestRouterPinsSurviveRestart(t *testing.T) {
	ctx := context.Background()
	f := newFleet(t, 3, t.TempDir())
	c := kclient.New(f.url)

	parent, err := c.Create(ctx, server.CreateRequest{Catalog: "collatz"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := c.Step(ctx, parent.ID, 30); err != nil {
		t.Fatalf("step: %v", err)
	}
	fk, err := c.Fork(ctx, parent.ID)
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	forkOwner := f.ownerOf(t, fk.ID)
	if _, err := os.Stat(filepath.Join(f.dir, "sessions", fk.ID, "pin.json")); err != nil {
		t.Fatalf("fork pin was not persisted: %v", err)
	}

	// Migrate the parent away from its hash position, pinning it too.
	parentOwner := f.ownerOf(t, parent.ID)
	target := (parentOwner + 1) % len(f.backends)
	mig, err := c.Migrate(ctx, parent.ID, fmt.Sprintf("b%d", target+1))
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if mig.To != fmt.Sprintf("b%d", target+1) {
		t.Fatalf("migrated to %s, want b%d", mig.To, target+1)
	}
	if _, err := os.Stat(filepath.Join(f.dir, "sessions", parent.ID, "pin.json")); err != nil {
		t.Fatalf("migration pin was not persisted: %v", err)
	}

	// A fresh router must route both sessions to their pinned homes.
	c2 := f.restartRouter(t)
	if _, err := c2.Step(ctx, fk.ID, 10); err != nil {
		t.Fatalf("step fork via restarted router: %v", err)
	}
	if got := f.ownerOf(t, fk.ID); got != forkOwner {
		t.Fatalf("restarted router moved fork %s to backend %d, pinned home is %d", fk.ID, got, forkOwner)
	}
	if _, err := c2.Step(ctx, parent.ID, 10); err != nil {
		t.Fatalf("step migrated session via restarted router: %v", err)
	}
	if got := f.ownerOf(t, parent.ID); got != target {
		t.Fatalf("restarted router moved %s to backend %d, pinned home is %d", parent.ID, got, target)
	}

	// Deleting through the restarted router drops the durable pin too.
	if err := c2.Delete(ctx, fk.ID); err != nil {
		t.Fatalf("delete fork: %v", err)
	}
	if _, err := os.Stat(filepath.Join(f.dir, "sessions", fk.ID, "pin.json")); !os.IsNotExist(err) {
		t.Fatalf("deleted fork still has a pin file (err %v)", err)
	}
}

// Package router implements the ksimd fleet gateway: one HTTP front door
// that consistent-hash-routes session ids across N backend ksimd daemons,
// forwards the existing JSON API transparently (a trace/vcd response of
// unknown length is flushed as it arrives, the ReverseProxy default;
// Idempotency-Key headers pass untouched), health-checks the
// backends, and re-homes sessions when their backend dies — the backends
// share a durable store, so routing a session to a surviving node is enough
// for the node's own transparent resurrection to revive it from its last
// checkpoint.
//
// The router also orchestrates live migration (checkpoint → transfer →
// resurrect): export-with-release on the source, import behind the
// StateDigest+cycle gate on the target, and a routing pin so the session's
// new home overrides its hash placement.
//
// Placement is by session id: creates that arrive without an id get a
// router-minted fleet-unique one ("g" + 12 hex digits) before forwarding,
// so the id alone determines the owning backend and any router replica
// would route it identically.
package router

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cuttlego/internal/server"
)

// vnodes is how many ring points each backend contributes. 64 keeps the
// load split within a few percent of even for small fleets without making
// the ring scan measurable.
const vnodes = 64

// Backend is one ksimd daemon behind the router.
type Backend struct {
	Name string
	URL  *url.URL

	up    atomic.Bool
	proxy *httputil.ReverseProxy
}

// Up reports the backend's last observed health.
func (b *Backend) Up() bool { return b.up.Load() }

type ringPoint struct {
	hash uint64
	b    *Backend
}

// Config tunes a Router.
type Config struct {
	// Backends is the fleet, as "url" or "name=url" entries. Bare URLs are
	// named b1..bN in order.
	Backends []string
	// HealthInterval is the gap between backend health probes (default 1s).
	HealthInterval time.Duration
	// MaxBody bounds request bodies the router must buffer to route (create,
	// resurrect, import, migrate). Default 64MB: import bodies carry whole
	// snapshots. Pass-through requests are never buffered.
	MaxBody int64
	// StoreDir is the fleet's shared durable store. When set, routing pins
	// (fork children, migrated sessions) persist to
	// <dir>/sessions/<id>/pin.json and a restarted router re-learns them at
	// startup; empty keeps pins in-memory only.
	StoreDir string
}

// Router is the gateway state.
type Router struct {
	backends []*Backend
	ring     []ringPoint
	mux      *http.ServeMux
	client   *http.Client
	maxBody  int64
	interval time.Duration

	// pins overrides hash placement for migrated sessions: id → *Backend.
	// Mutate through pin/unpin so the on-disk copy stays in step.
	pins     sync.Map
	storeDir string

	started    time.Time
	stop       chan struct{}
	stopped    sync.Once
	rehomes    atomic.Uint64
	migrations atomic.Uint64
}

// New builds a router over the given backends. Backends start marked up;
// the first health sweep (Start, or the synchronous Probe) corrects that
// within one interval.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("router: no backends")
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = time.Second
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 64 << 20
	}
	rt := &Router{
		client:   &http.Client{Timeout: 5 * time.Minute},
		maxBody:  cfg.MaxBody,
		interval: cfg.HealthInterval,
		storeDir: cfg.StoreDir,
		started:  time.Now(),
		stop:     make(chan struct{}),
	}
	seen := make(map[string]bool)
	for i, spec := range cfg.Backends {
		name := fmt.Sprintf("b%d", i+1)
		addr := spec
		if at := strings.IndexByte(spec, '='); at >= 0 {
			name, addr = spec[:at], spec[at+1:]
		}
		if !strings.Contains(addr, "://") {
			addr = "http://" + addr
		}
		u, err := url.Parse(addr)
		if err != nil || u.Host == "" {
			return nil, fmt.Errorf("router: backend %q: not a URL", spec)
		}
		if seen[name] {
			return nil, fmt.Errorf("router: duplicate backend name %q", name)
		}
		seen[name] = true
		b := &Backend{Name: name, URL: u}
		b.up.Store(true)
		b.proxy = &httputil.ReverseProxy{
			Rewrite: func(pr *httputil.ProxyRequest) {
				pr.SetURL(u)
				pr.Out.Host = u.Host
			},
			ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
				// A refused connection means the backend is gone; mark it so
				// the very next request re-homes instead of waiting for the
				// health sweep.
				b.up.Store(false)
				writeErr(w, http.StatusBadGateway, fmt.Sprintf("backend %s: %v", b.Name, err))
			},
		}
		rt.backends = append(rt.backends, b)
		for v := 0; v < vnodes; v++ {
			rt.ring = append(rt.ring, ringPoint{hash: fnv64(fmt.Sprintf("%s#%d", name, v)), b: b})
		}
	}
	sort.Slice(rt.ring, func(i, j int) bool { return rt.ring[i].hash < rt.ring[j].hash })
	rt.mux = http.NewServeMux()
	rt.routes()
	rt.loadPins()
	return rt, nil
}

// Handler returns the gateway's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Backends returns the fleet for inspection.
func (rt *Router) Backends() []*Backend { return rt.backends }

// Start launches the periodic health sweep (after one synchronous probe, so
// routing decisions are sane from the first request).
func (rt *Router) Start() {
	rt.Probe()
	go func() {
		t := time.NewTicker(rt.interval)
		defer t.Stop()
		for {
			select {
			case <-rt.stop:
				return
			case <-t.C:
				rt.Probe()
			}
		}
	}()
}

// Close stops the health sweep.
func (rt *Router) Close() { rt.stopped.Do(func() { close(rt.stop) }) }

// Probe health-checks every backend once, concurrently.
func (rt *Router) Probe() {
	var wg sync.WaitGroup
	for _, b := range rt.backends {
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			c := &http.Client{Timeout: 2 * time.Second}
			resp, err := c.Get(b.URL.JoinPath("/healthz").String())
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			b.up.Store(err == nil && resp.StatusCode == http.StatusOK)
		}(b)
	}
	wg.Wait()
}

// fnv64 is FNV-1a, the same family the snapshot digest uses; any stable
// well-mixed hash works for ring placement.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// owner maps a session id to its backend: the migration pin if one is live,
// else the first up backend at or after the id's ring point. rehomed
// reports that the id's primary owner was down and a survivor was picked —
// the shared durable store makes that survivor able to resurrect the
// session from its last checkpoint.
func (rt *Router) owner(id string) (b *Backend, rehomed bool) {
	if v, ok := rt.pins.Load(id); ok {
		if p := v.(*Backend); p.up.Load() {
			return p, false
		}
		// The pinned home died; fall back to the ring (and forget the pin —
		// the durable store is the session's home of record now).
		rt.unpin(id)
	}
	h := fnv64(id)
	i := sort.Search(len(rt.ring), func(i int) bool { return rt.ring[i].hash >= h })
	if i == len(rt.ring) {
		i = 0
	}
	primary := rt.ring[i].b
	for k := 0; k < len(rt.ring); k++ {
		if b := rt.ring[(i+k)%len(rt.ring)].b; b.up.Load() {
			return b, b != primary
		}
	}
	return nil, false
}

// byName finds a backend by router name or URL string.
func (rt *Router) byName(target string) *Backend {
	for _, b := range rt.backends {
		if b.Name == target || b.URL.String() == target || b.URL.Host == target {
			return b
		}
	}
	return nil
}

func (rt *Router) routes() {
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /v1/sessions", rt.handleList)
	rt.mux.HandleFunc("POST /v1/sessions", rt.handleCreate)
	rt.mux.HandleFunc("POST /v1/resurrect", rt.handleBodyRouted("session"))
	rt.mux.HandleFunc("POST /v1/import", rt.handleBodyRouted("id"))
	rt.mux.HandleFunc("POST /v1/sessions/{id}/migrate", rt.handleMigrate)
	rt.mux.HandleFunc("POST /v1/sessions/{id}/fork", rt.handleFork)
	rt.mux.HandleFunc("/v1/sessions/{id}", rt.handleSession)
	rt.mux.HandleFunc("/v1/sessions/{id}/{op}", rt.handleSession)
	// Trace-store endpoints are one path segment deeper; same forwarding.
	rt.mux.HandleFunc("/v1/sessions/{id}/trace/{op}", rt.handleSession)
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(server.ErrorResponse{Error: msg})
}

// handleSession forwards any per-session request to the id's owner,
// streaming the response through untouched (headers included, so
// Idempotency-Key and Retry-After survive the hop).
func (rt *Router) handleSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	b, rehomed := rt.owner(id)
	if b == nil {
		writeErr(w, http.StatusServiceUnavailable, "no backend is up")
		return
	}
	if rehomed {
		rt.rehomes.Add(1)
	}
	if r.Method == http.MethodDelete {
		rt.unpin(id)
	}
	b.proxy.ServeHTTP(w, r)
}

// handleFork forwards a fork to the parent's owner and pins the
// backend-minted child id there: the child lives where its parent's
// snapshot lives (that is what makes the fork copy-on-write), so its id
// cannot be placed by the hash ring.
func (rt *Router) handleFork(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	b, rehomed := rt.owner(id)
	if b == nil {
		writeErr(w, http.StatusServiceUnavailable, "no backend is up")
		return
	}
	if rehomed {
		rt.rehomes.Add(1)
	}
	out, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		b.URL.JoinPath("/v1/sessions/"+id+"/fork").String(), http.NoBody)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	if k := r.Header.Get("Idempotency-Key"); k != "" {
		out.Header.Set("Idempotency-Key", k)
	}
	resp, err := rt.client.Do(out)
	if err != nil {
		b.up.Store(false)
		writeErr(w, http.StatusBadGateway, fmt.Sprintf("backend %s: %v", b.Name, err))
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, rt.maxBody))
	if err != nil {
		writeErr(w, http.StatusBadGateway, fmt.Sprintf("backend %s: %v", b.Name, err))
		return
	}
	if resp.StatusCode == http.StatusCreated {
		var info server.SessionInfo
		if err := json.Unmarshal(body, &info); err == nil && info.ID != "" {
			rt.pin(info.ID, b)
		}
	}
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
}

// handleCreate mints a fleet-unique session id when the client did not
// claim one, then forwards the create to the id's owner. The id is minted
// before placement so the hash ring, not the backend, decides where the
// session lives.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req server.CreateRequest
	if !rt.decode(w, r, &req) {
		return
	}
	if req.ID == "" {
		req.ID = mintID()
	}
	b, rehomed := rt.owner(req.ID)
	if b == nil {
		writeErr(w, http.StatusServiceUnavailable, "no backend is up")
		return
	}
	if rehomed {
		rt.rehomes.Add(1)
	}
	rt.forwardJSON(w, r, b, "/v1/sessions", req)
}

// handleBodyRouted forwards requests whose routing key travels in the JSON
// body (resurrect's "session", import's "id").
func (rt *Router) handleBodyRouted(field string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, rt.maxBody))
		if err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
		var probe map[string]any
		if err := json.Unmarshal(body, &probe); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("request body: %v", err))
			return
		}
		id, _ := probe[field].(string)
		if id == "" {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("request body needs %q to route", field))
			return
		}
		b, rehomed := rt.owner(id)
		if b == nil {
			writeErr(w, http.StatusServiceUnavailable, "no backend is up")
			return
		}
		if rehomed {
			rt.rehomes.Add(1)
		}
		rt.forwardRaw(w, r, b, r.URL.Path, body)
	}
}

// decode reads a bounded JSON body.
func (rt *Router) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, rt.maxBody))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return false
	}
	if err := json.Unmarshal(body, into); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("request body: %v", err))
		return false
	}
	return true
}

// forwardJSON re-encodes payload and forwards it to b at path, copying the
// inbound request's relevant headers (Idempotency-Key in particular) and
// relaying the backend's response verbatim.
func (rt *Router) forwardJSON(w http.ResponseWriter, r *http.Request, b *Backend, path string, payload any) {
	body, err := json.Marshal(payload)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	rt.forwardRaw(w, r, b, path, body)
}

func (rt *Router) forwardRaw(w http.ResponseWriter, r *http.Request, b *Backend, path string, body []byte) {
	out, err := http.NewRequestWithContext(r.Context(), r.Method, b.URL.JoinPath(path).String(), bytes.NewReader(body))
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	out.Header.Set("Content-Type", "application/json")
	if k := r.Header.Get("Idempotency-Key"); k != "" {
		out.Header.Set("Idempotency-Key", k)
	}
	resp, err := rt.client.Do(out)
	if err != nil {
		b.up.Store(false)
		writeErr(w, http.StatusBadGateway, fmt.Sprintf("backend %s: %v", b.Name, err))
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// mintID returns a fleet-unique session id: "g" + 12 hex digits. The "g"
// prefix keeps router-minted ids disjoint from backend-minted "s<N>" ones.
func mintID() string {
	var buf [6]byte
	_, _ = rand.Read(buf[:])
	return "g" + hex.EncodeToString(buf[:])
}

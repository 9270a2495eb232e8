// Package native is the ahead-of-time execution tier: it compiles a design
// into a standalone simulator binary via the gomodel servo emitter and the
// Go toolchain, caches the binaries on disk keyed by content digest, and
// runs them as managed subprocesses behind the sim.Engine interface.
//
// This is the paper's compiled-simulation thesis taken to its production
// conclusion — instead of interpreting or closing over the design in
// process, the whole cycle function (rules, scheduler, activity parking,
// even the testbench) is handed to the optimizing compiler once, and every
// subsequent session of the same design reuses the binary.
//
// The package has three layers:
//
//   - Cache (this file): digest-keyed compile cache with singleflight
//     deduplication, size-bounded LRU eviction, stale-toolchain sweeping,
//     and corrupt-binary quarantine. File operations route through a
//     faultinj.FS so crash and corruption paths are testable.
//   - Engine (engine.go): the supervisor for one simulator subprocess,
//     speaking the gomodel servo protocol over stdin/stdout.
//   - The reaper (reaper.go): a registry of live subprocesses so daemon
//     shutdown can kill every child simulator, leaks included.
package native

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"cuttlego/internal/ast"
	"cuttlego/internal/faultinj"
	"cuttlego/internal/gomodel"
)

// DefaultMaxBytes bounds the cache when CacheOptions.MaxBytes is zero:
// roomy enough for dozens of design binaries, small enough that a cache
// directory cannot grow without bound.
const DefaultMaxBytes = 1 << 30

// CacheOptions configure OpenCache.
type CacheOptions struct {
	// MaxBytes bounds the total size of cached binaries; once an insert
	// pushes the cache past it, least-recently-used entries are evicted
	// (never the entry just inserted). 0 means DefaultMaxBytes.
	MaxBytes int64
	// FS overrides the filesystem, for fault-injection tests. Nil means the
	// real one.
	FS faultinj.FS
	// GoTool overrides the path of the go tool; empty resolves "go" from
	// PATH at first compile.
	GoTool string
}

// Cache is a digest-keyed store of compiled simulator binaries. The key
// covers the emitted servo source (which embeds the design, its memory
// images, and the testbench bindings), the emitter version, and the Go
// toolchain version — so any input that could change generated behavior
// misses instead of lying. Safe for concurrent use; concurrent builds of
// the same key run exactly one compile (singleflight).
type Cache struct {
	dir string
	max int64
	fs  faultinj.FS
	gob string

	mu      sync.Mutex
	entries map[string]*entry
	flights map[string]*flight
	clock   int64 // LRU clock: bumped on every touch
	tmpSeq  int64

	stats Stats
}

// Stats counts cache activity since OpenCache (and, for Entries/Bytes, the
// current resident set).
type Stats struct {
	Hits        int64 // warm lookups served from disk
	Misses      int64 // lookups that had to compile
	Builds      int64 // go build invocations (singleflight makes this <= Misses)
	Evictions   int64 // entries removed by the size bound
	Quarantined int64 // entries set aside because their binary was corrupt
	StaleSwept  int64 // entries dropped at open for emitter/toolchain mismatch
	Entries     int   // resident entries
	Bytes       int64 // resident binary bytes
}

type entry struct {
	key  string
	size int64
	used int64 // LRU clock stamp
	meta meta
}

type flight struct {
	done chan struct{}
	res  BuildResult
	err  error
}

// meta is the per-entry metadata file (meta.json).
type meta struct {
	Key         string `json:"key"`
	Design      string `json:"design"`
	DesignHash  string `json:"design_hash"`
	Emitter     string `json:"emitter"`
	Toolchain   string `json:"toolchain"`
	SizeBytes   int64  `json:"size_bytes"`
	BinSHA256   string `json:"bin_sha256"`
	CreatedUnix int64  `json:"created_unix"`
}

// BuildResult describes one compiled binary.
type BuildResult struct {
	// Path is the binary's location inside the cache.
	Path string
	// Key is the cache key (content digest).
	Key string
	// DesignHash is the gomodel design fingerprint the binary will report
	// during its handshake.
	DesignHash uint64
	// Cached reports whether the lookup was a warm hit.
	Cached bool
	// CompileTime is the go build wall time (zero on warm hits).
	CompileTime time.Duration
}

const (
	binName  = "model"
	srcName  = "model.go"
	metaName = "meta.json"
)

// Key digests emitted servo source into a cache key. The emitter version
// and toolchain version are mixed in so either changing invalidates every
// old entry by construction.
func Key(src string) string {
	h := sha256.New()
	h.Write([]byte(gomodel.EmitterVersion))
	h.Write([]byte{0})
	h.Write([]byte(runtime.Version()))
	h.Write([]byte{0})
	h.Write([]byte(src))
	return hex.EncodeToString(h.Sum(nil))[:24]
}

// OpenCache opens (creating if needed) a compile cache rooted at dir. The
// directory is scanned: entries built by a different emitter or toolchain
// version are swept (their keys would never match again, so they are pure
// dead weight), temp debris from interrupted compiles is removed, and
// quarantined entries are left in place for postmortems.
func OpenCache(dir string, opts CacheOptions) (*Cache, error) {
	fs := opts.FS
	if fs == nil {
		fs = faultinj.OS()
	}
	max := opts.MaxBytes
	if max <= 0 {
		max = DefaultMaxBytes
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("native: open cache: %w", err)
	}
	c := &Cache{
		dir:     dir,
		max:     max,
		fs:      fs,
		gob:     opts.GoTool,
		entries: make(map[string]*entry),
		flights: make(map[string]*flight),
	}
	des, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("native: open cache: %w", err)
	}
	for _, de := range des {
		name := de.Name()
		if !de.IsDir() {
			continue
		}
		if strings.Contains(name, ".tmp-") {
			fs.RemoveAll(filepath.Join(dir, name)) // interrupted compile
			continue
		}
		if strings.Contains(name, ".corrupt") {
			continue // kept for postmortems; not resident
		}
		raw, err := fs.ReadFile(filepath.Join(dir, name, metaName))
		if err != nil {
			fs.RemoveAll(filepath.Join(dir, name)) // torn entry
			continue
		}
		var m meta
		if json.Unmarshal(raw, &m) != nil || m.Key != name {
			fs.RemoveAll(filepath.Join(dir, name))
			continue
		}
		if m.Emitter != gomodel.EmitterVersion || m.Toolchain != runtime.Version() {
			fs.RemoveAll(filepath.Join(dir, name))
			c.stats.StaleSwept++
			continue
		}
		c.clock++
		c.entries[name] = &entry{key: name, size: m.SizeBytes, used: c.clock, meta: m}
	}
	return c, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// StatsSnapshot returns current counters.
func (c *Cache) StatsSnapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	for _, e := range c.entries {
		s.Bytes += e.size
	}
	return s
}

// Build returns a compiled servo binary for the design, compiling on miss.
// Concurrent calls for the same key wait on one compile. A cached binary
// whose bytes no longer match the recorded digest is quarantined (renamed
// aside) and rebuilt instead of being trusted.
func (c *Cache) Build(d *ast.Design, b *gomodel.Bindings) (BuildResult, error) {
	src, err := gomodel.EmitServo(d, b)
	if err != nil {
		return BuildResult{}, err
	}
	hash := gomodel.DesignHash(d)
	key := Key(src)
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.clock++
			e.used = c.clock
			wantSHA := e.meta.BinSHA256
			c.mu.Unlock()
			path := filepath.Join(c.dir, key, binName)
			if err := c.verify(path, wantSHA); err != nil {
				c.quarantine(key, err)
				continue // rebuild below
			}
			c.mu.Lock()
			c.stats.Hits++
			c.mu.Unlock()
			return BuildResult{Path: path, Key: key, DesignHash: hash, Cached: true}, nil
		}
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			<-f.done
			if f.err != nil {
				return BuildResult{}, f.err
			}
			res := f.res
			res.DesignHash = hash
			return res, nil
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.stats.Misses++
		c.mu.Unlock()

		f.res, f.err = c.compile(d.Name, hash, key, src)
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		close(f.done)
		return f.res, f.err
	}
}

// verify rereads the cached binary and checks it against the digest stored
// at compile time, so torn writes and bit rot surface as quarantine events
// rather than subprocesses that fail (or lie) downstream.
func (c *Cache) verify(path, wantSHA string) error {
	raw, err := c.fs.ReadFile(path)
	if err != nil {
		return fmt.Errorf("binary unreadable: %w", err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != wantSHA {
		return fmt.Errorf("binary digest mismatch (have %s, recorded %s)", got[:12], wantSHA[:12])
	}
	return nil
}

// Quarantine sets a cache entry aside (renamed to <key>.corrupt-N) so the
// next Build recompiles instead of reusing bad bytes. Exposed for the
// engine layer, which quarantines entries whose binaries fail to launch or
// report the wrong design hash.
func (c *Cache) Quarantine(key string, cause error) { c.quarantine(key, cause) }

func (c *Cache) quarantine(key string, cause error) {
	c.mu.Lock()
	delete(c.entries, key)
	c.stats.Quarantined++
	n := c.stats.Quarantined
	c.mu.Unlock()
	_ = cause // recorded by callers' error paths; the rename is the action
	c.fs.Rename(filepath.Join(c.dir, key), filepath.Join(c.dir, fmt.Sprintf("%s.corrupt-%d", key, n)))
}

func (c *Cache) goTool() (string, error) {
	if c.gob != "" {
		return c.gob, nil
	}
	p, err := exec.LookPath("go")
	if err != nil {
		return "", fmt.Errorf("native: go tool not found: %w", err)
	}
	return p, nil
}

func (c *Cache) compile(design string, hash uint64, key, src string) (BuildResult, error) {
	goBin, err := c.goTool()
	if err != nil {
		return BuildResult{}, err
	}
	c.mu.Lock()
	c.tmpSeq++
	tmp := filepath.Join(c.dir, fmt.Sprintf("%s.tmp-%d-%d", key, os.Getpid(), c.tmpSeq))
	c.mu.Unlock()
	if err := c.fs.MkdirAll(tmp, 0o755); err != nil {
		return BuildResult{}, fmt.Errorf("native: compile %s: %w", design, err)
	}
	defer c.fs.RemoveAll(tmp)
	if err := c.fs.WriteFile(filepath.Join(tmp, srcName), []byte(src), 0o644); err != nil {
		return BuildResult{}, fmt.Errorf("native: compile %s: %w", design, err)
	}
	cmd := exec.Command(goBin, "build", "-o", filepath.Join(tmp, binName), filepath.Join(tmp, srcName))
	cmd.Env = append(os.Environ(), "GOFLAGS=", "GO111MODULE=off")
	start := time.Now()
	out, err := cmd.CombinedOutput()
	elapsed := time.Since(start)
	c.mu.Lock()
	c.stats.Builds++
	c.mu.Unlock()
	if err != nil {
		return BuildResult{}, fmt.Errorf("native: go build %s: %v\n%s", design, err, out)
	}
	bin, err := c.fs.ReadFile(filepath.Join(tmp, binName))
	if err != nil {
		return BuildResult{}, fmt.Errorf("native: compile %s: %w", design, err)
	}
	sum := sha256.Sum256(bin)
	m := meta{
		Key:         key,
		Design:      design,
		DesignHash:  fmt.Sprintf("%016x", hash),
		Emitter:     gomodel.EmitterVersion,
		Toolchain:   runtime.Version(),
		SizeBytes:   int64(len(bin)),
		BinSHA256:   hex.EncodeToString(sum[:]),
		CreatedUnix: time.Now().Unix(),
	}
	raw, _ := json.MarshalIndent(m, "", "  ")
	if err := c.fs.WriteFile(filepath.Join(tmp, metaName), raw, 0o644); err != nil {
		return BuildResult{}, fmt.Errorf("native: compile %s: %w", design, err)
	}
	if err := c.fs.Sync(filepath.Join(tmp, metaName)); err != nil {
		return BuildResult{}, fmt.Errorf("native: compile %s: %w", design, err)
	}
	final := filepath.Join(c.dir, key)
	if err := c.fs.Rename(tmp, final); err != nil {
		return BuildResult{}, fmt.Errorf("native: compile %s: publish: %w", design, err)
	}
	c.fs.Sync(c.dir)

	c.mu.Lock()
	c.clock++
	c.entries[key] = &entry{key: key, size: m.SizeBytes, used: c.clock, meta: m}
	evict := c.evictionsLocked(key)
	c.mu.Unlock()
	for _, victim := range evict {
		c.fs.RemoveAll(filepath.Join(c.dir, victim))
	}
	return BuildResult{Path: filepath.Join(final, binName), Key: key, DesignHash: hash, CompileTime: elapsed}, nil
}

// evictionsLocked applies the size bound: while the resident set exceeds
// MaxBytes, the least-recently-used entry is dropped — never keep, the one
// just inserted, so a single oversized binary still caches.
func (c *Cache) evictionsLocked(keep string) []string {
	var victims []string
	for {
		var total int64
		for _, e := range c.entries {
			total += e.size
		}
		if total <= c.max {
			return victims
		}
		var lru *entry
		for _, e := range c.entries {
			if e.key == keep {
				continue
			}
			if lru == nil || e.used < lru.used {
				lru = e
			}
		}
		if lru == nil {
			return victims // only the new entry remains; allow over-bound
		}
		delete(c.entries, lru.key)
		c.stats.Evictions++
		victims = append(victims, lru.key)
	}
}

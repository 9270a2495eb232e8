package native_test

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"cuttlego/internal/ast"
	"cuttlego/internal/bench"
	"cuttlego/internal/faultinj"
	"cuttlego/internal/gomodel"
	"cuttlego/internal/interp"
	"cuttlego/internal/native"
	"cuttlego/internal/sim"
)

func openCache(t *testing.T, opts native.CacheOptions) *native.Cache {
	t.Helper()
	c, err := native.OpenCache(t.TempDir(), opts)
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}
	return c
}

func launch(t *testing.T, c *native.Cache, d *ast.Design, b *gomodel.Bindings) *native.Engine {
	t.Helper()
	e, err := c.Engine(d, b)
	if err != nil {
		t.Fatalf("Engine(%s): %v", d.Name, err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestLockstepStandalone runs zoo designs (no external functions) under the
// native tier and the reference interpreter and demands state-digest
// equality plus identical fired-rule sets on every single cycle.
func TestLockstepStandalone(t *testing.T) {
	designs := []*ast.Design{
		bench.CollatzBench(27).MustCheck(),
		bench.FFTBench(8).MustCheck(),
		bench.IdleBench(8, 3).MustCheck(),
	}
	c := openCache(t, native.CacheOptions{})
	for _, d := range designs {
		t.Run(d.Name, func(t *testing.T) {
			ref, err := interp.New(d)
			if err != nil {
				t.Fatalf("interp: %v", err)
			}
			eng := launch(t, c, d, nil)
			for cyc := 0; cyc < 300; cyc++ {
				ref.Cycle()
				eng.Cycle()
				if a, b := sim.StateDigest(ref), sim.StateDigest(eng); a != b {
					t.Fatalf("cycle %d: interp digest %016x, native %016x", cyc+1, a, b)
				}
				for _, r := range d.Rules {
					if ref.RuleFired(r.Name) != eng.RuleFired(r.Name) {
						t.Fatalf("cycle %d: rule %s fired=%v under interp, %v under native",
							cyc+1, r.Name, ref.RuleFired(r.Name), eng.RuleFired(r.Name))
					}
				}
				if eng.CycleCount() != ref.CycleCount() {
					t.Fatalf("cycle count drift: interp %d native %d", ref.CycleCount(), eng.CycleCount())
				}
			}
		})
	}
}

// TestLockstepRV32I runs the rv32i benchmark (external memory functions plus
// the write-port drain testbench, both embedded in the native binary) in
// per-cycle lockstep against the reference interpreter driven by the
// in-process testbench.
func TestLockstepRV32I(t *testing.T) {
	bm := findBench(t, "rv32i")
	refInst, natInst := bm.New(), bm.New()
	ref, err := interp.New(refInst.Design)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	c := openCache(t, native.CacheOptions{})
	eng := launch(t, c, natInst.Design, natInst.Native)
	for cyc := 0; cyc < 400; cyc++ {
		refInst.Bench.BeforeCycle(ref)
		ref.Cycle()
		refInst.Bench.AfterCycle(ref)
		eng.Cycle()
		if a, b := sim.StateDigest(ref), sim.StateDigest(eng); a != b {
			t.Fatalf("cycle %d: interp digest %016x, native %016x", cyc+1, a, b)
		}
	}
}

func findBench(t *testing.T, name string) bench.Benchmark {
	t.Helper()
	for _, bm := range bench.Suite() {
		if bm.Name == name {
			return bm
		}
	}
	t.Fatalf("benchmark %q not in suite", name)
	return bench.Benchmark{}
}

// TestSnapshotRestorePoke exercises the state-transfer surface the tiered
// server depends on: snapshot/restore determinism and poke visibility.
func TestSnapshotRestorePoke(t *testing.T) {
	d := bench.CollatzBench(27).MustCheck()
	c := openCache(t, native.CacheOptions{})
	eng := launch(t, c, d, nil)

	if err := eng.StepN(10); err != nil {
		t.Fatalf("StepN: %v", err)
	}
	snap := eng.Snapshot()
	if snap.Cycle != 10 {
		t.Fatalf("snapshot cycle = %d, want 10", snap.Cycle)
	}
	if err := eng.StepN(50); err != nil {
		t.Fatalf("StepN: %v", err)
	}
	d1 := sim.StateDigest(eng)
	eng.Restore(snap)
	if eng.CycleCount() != 10 {
		t.Fatalf("cycle count after restore = %d, want 10", eng.CycleCount())
	}
	if err := eng.StepN(50); err != nil {
		t.Fatalf("StepN: %v", err)
	}
	if d2 := sim.StateDigest(eng); d2 != d1 {
		t.Fatalf("replay after restore diverged: %016x vs %016x", d2, d1)
	}

	eng.SetReg("x", eng.Reg("x").Not()) // arbitrary poke
	want := eng.Reg("x")
	snap2 := eng.Snapshot()
	if got := snap2.WideReg(d.RegIndex("x")).Bits().Val; got != want.Val {
		t.Fatalf("poke not visible in snapshot: %#x want %#x", got, want.Val)
	}

	prof, err := eng.Profile()
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	var commits uint64
	for _, p := range prof {
		commits += p.Commits
	}
	if commits == 0 {
		t.Fatalf("profile reports zero commits after 110 cycles: %+v", prof)
	}
}

// TestSingleflight builds the same design from 8 goroutines at once and
// demands exactly one go-build underneath them all.
func TestSingleflight(t *testing.T) {
	d := bench.CollatzBench(5).MustCheck()
	c := openCache(t, native.CacheOptions{})
	var wg sync.WaitGroup
	paths := make([]string, 8)
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Build(d, nil)
			paths[i], errs[i] = res.Path, err
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("build %d: %v", i, errs[i])
		}
		if paths[i] != paths[0] {
			t.Fatalf("build %d produced %s, build 0 produced %s", i, paths[i], paths[0])
		}
	}
	st := c.StatsSnapshot()
	if st.Builds != 1 {
		t.Fatalf("8 concurrent builds ran %d compiles, want exactly 1", st.Builds)
	}
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
	res, err := c.Build(d, nil)
	if err != nil || !res.Cached {
		t.Fatalf("warm rebuild: cached=%v err=%v", res.Cached, err)
	}
	if st := c.StatsSnapshot(); st.Hits != 1 {
		t.Fatalf("hits = %d, want 1", st.Hits)
	}
}

// TestLRUEviction caps the cache so small that every new entry evicts the
// previous one.
func TestLRUEviction(t *testing.T) {
	c := openCache(t, native.CacheOptions{MaxBytes: 1})
	r1, err := c.Build(bench.CollatzBench(1).MustCheck(), nil)
	if err != nil {
		t.Fatalf("build 1: %v", err)
	}
	if _, err := c.Build(bench.CollatzBench(2).MustCheck(), nil); err != nil {
		t.Fatalf("build 2: %v", err)
	}
	st := c.StatsSnapshot()
	if st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("evictions=%d entries=%d, want 1/1", st.Evictions, st.Entries)
	}
	if _, err := os.Stat(r1.Path); !os.IsNotExist(err) {
		t.Fatalf("evicted binary still on disk: %v", err)
	}
	// The evicted design misses again and recompiles.
	r3, err := c.Build(bench.CollatzBench(1).MustCheck(), nil)
	if err != nil || r3.Cached {
		t.Fatalf("rebuild after eviction: cached=%v err=%v", r3.Cached, err)
	}
}

// TestStaleToolchainSweep doctors an entry's recorded toolchain and reopens
// the cache: the entry must be swept, not served.
func TestStaleToolchainSweep(t *testing.T) {
	dir := t.TempDir()
	c, err := native.OpenCache(dir, native.CacheOptions{})
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}
	res, err := c.Build(bench.CollatzBench(3).MustCheck(), nil)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	metaPath := filepath.Join(dir, res.Key, "meta.json")
	raw, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatalf("read meta: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("meta json: %v", err)
	}
	m["toolchain"] = "go0.0-ancient"
	doctored, _ := json.Marshal(m)
	if err := os.WriteFile(metaPath, doctored, 0o644); err != nil {
		t.Fatalf("write meta: %v", err)
	}
	c2, err := native.OpenCache(dir, native.CacheOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	st := c2.StatsSnapshot()
	if st.StaleSwept != 1 || st.Entries != 0 {
		t.Fatalf("stale_swept=%d entries=%d, want 1/0", st.StaleSwept, st.Entries)
	}
	if _, err := os.Stat(filepath.Join(dir, res.Key)); !os.IsNotExist(err) {
		t.Fatalf("stale entry still on disk: %v", err)
	}
}

// TestCorruptBinaryQuarantine flips bytes in a cached binary; the next
// lookup must detect the digest mismatch, quarantine the entry, and
// recompile rather than serve bad bytes.
func TestCorruptBinaryQuarantine(t *testing.T) {
	dir := t.TempDir()
	c, err := native.OpenCache(dir, native.CacheOptions{})
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}
	d := bench.CollatzBench(7).MustCheck()
	res, err := c.Build(d, nil)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	raw, err := os.ReadFile(res.Path)
	if err != nil {
		t.Fatalf("read binary: %v", err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(res.Path, raw, 0o755); err != nil {
		t.Fatalf("corrupt binary: %v", err)
	}
	res2, err := c.Build(d, nil)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if res2.Cached {
		t.Fatalf("corrupt entry served as a warm hit")
	}
	st := c.StatsSnapshot()
	if st.Quarantined != 1 || st.Builds != 2 {
		t.Fatalf("quarantined=%d builds=%d, want 1/2", st.Quarantined, st.Builds)
	}
	if _, err := os.Stat(filepath.Join(dir, res.Key+".corrupt-1")); err != nil {
		t.Fatalf("quarantine directory missing: %v", err)
	}
}

// TestTornReadQuarantine reuses the fault-injection filesystem: a torn read
// of the cached binary during hit verification must quarantine and rebuild,
// not launch half a binary.
func TestTornReadQuarantine(t *testing.T) {
	// fs.read call 1 hashes the binary at compile time; call 2 is the warm-hit
	// verification, which the tear hits.
	inj := faultinj.New(1, faultinj.Rule{Op: "fs.read", Nth: 2, Kind: faultinj.Tear})
	c := openCache(t, native.CacheOptions{FS: faultinj.NewFS(faultinj.OS(), inj)})
	d := bench.CollatzBench(9).MustCheck()
	if _, err := c.Build(d, nil); err != nil {
		t.Fatalf("build: %v", err)
	}
	res, err := c.Build(d, nil)
	if err != nil {
		t.Fatalf("rebuild through torn read: %v", err)
	}
	if res.Cached {
		t.Fatalf("torn entry served as warm hit")
	}
	st := c.StatsSnapshot()
	if st.Quarantined != 1 || st.Builds != 2 {
		t.Fatalf("quarantined=%d builds=%d, want 1/2", st.Quarantined, st.Builds)
	}
}

// TestHandshakeDigestGate swaps one design's cached binary for another
// design's (fixing up the recorded digest so byte verification passes): the
// launch handshake must reject it on design-hash grounds, quarantine, and
// rebuild the right binary.
func TestHandshakeDigestGate(t *testing.T) {
	dir := t.TempDir()
	c, err := native.OpenCache(dir, native.CacheOptions{})
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}
	dA := bench.CollatzBench(11).MustCheck()
	dB := bench.IdleBench(4, 2).MustCheck()
	resA, err := c.Build(dA, nil)
	if err != nil {
		t.Fatalf("build A: %v", err)
	}
	resB, err := c.Build(dB, nil)
	if err != nil {
		t.Fatalf("build B: %v", err)
	}
	// Overwrite A's binary with B's and make A's metadata vouch for it.
	binB, err := os.ReadFile(resB.Path)
	if err != nil {
		t.Fatalf("read B: %v", err)
	}
	if err := os.WriteFile(resA.Path, binB, 0o755); err != nil {
		t.Fatalf("swap binary: %v", err)
	}
	metaPathA := filepath.Join(dir, resA.Key, "meta.json")
	rawA, _ := os.ReadFile(metaPathA)
	rawB, _ := os.ReadFile(filepath.Join(dir, resB.Key, "meta.json"))
	var mA, mB map[string]any
	json.Unmarshal(rawA, &mA)
	json.Unmarshal(rawB, &mB)
	mA["bin_sha256"] = mB["bin_sha256"]
	mA["size_bytes"] = mB["size_bytes"]
	doctored, _ := json.Marshal(mA)
	if err := os.WriteFile(metaPathA, doctored, 0o644); err != nil {
		t.Fatalf("doctor meta: %v", err)
	}

	c2, err := native.OpenCache(dir, native.CacheOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	eng, err := c2.Engine(dA, nil)
	if err != nil {
		t.Fatalf("Engine through swapped binary: %v", err)
	}
	defer eng.Close()
	st := c2.StatsSnapshot()
	if st.Quarantined != 1 || st.Builds != 1 {
		t.Fatalf("quarantined=%d builds=%d, want 1/1", st.Quarantined, st.Builds)
	}
	// The relaunched engine simulates the right design.
	ref, _ := interp.New(dA)
	ref.Cycle()
	eng.Cycle()
	if a, b := sim.StateDigest(ref), sim.StateDigest(eng); a != b {
		t.Fatalf("post-quarantine engine diverges: %016x vs %016x", a, b)
	}
}

// TestCrashIsSticky kills the subprocess out from under the engine and
// checks that the failure is reported honestly — once, then on every
// subsequent call — rather than hanging or lying.
func TestCrashIsSticky(t *testing.T) {
	d := bench.CollatzBench(13).MustCheck()
	c := openCache(t, native.CacheOptions{})
	eng := launch(t, c, d, nil)
	if err := eng.StepN(5); err != nil {
		t.Fatalf("StepN: %v", err)
	}
	syscall.Kill(eng.Pid(), syscall.SIGKILL)
	var err error
	for i := 0; i < 3; i++ { // the pipe may absorb one write
		if err = eng.StepN(1); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatalf("StepN kept succeeding after subprocess kill")
	}
	if eng.Dead() == nil {
		t.Fatalf("Dead() nil after crash")
	}
	if err2 := eng.StepN(1); err2 == nil {
		t.Fatalf("sticky failure not sticky")
	}
	// State reads are served from the mirror; after a crash they must fail
	// with the crash error rather than serve the last state seen.
	for what, read := range map[string]func() error{
		"Reg":          func() error { return recovered(func() { eng.Reg("x") }) },
		"ReadRow":      func() error { return recovered(func() { eng.ReadRow(make([]uint64, len(d.Registers))) }) },
		"PeekAll":      func() error { _, err := eng.PeekAll(); return err },
		"TakeSnapshot": func() error { _, err := eng.TakeSnapshot(); return err },
	} {
		if err := read(); err != eng.Dead() {
			t.Fatalf("%s after the crash: got %v, want the crash error %v", what, err, eng.Dead())
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close after crash: %v", err)
	}
}

// recovered runs f and returns the error it panicked with, or nil.
func recovered(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if err, _ = r.(error); err == nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}
	}()
	f()
	return nil
}

// TestRetiredOpcodesRefused sends each opcode protocol 3 retired (step,
// peek, peek-all, snapshot) to a live servo: each must be refused with an
// "unknown opcode" RemoteError, not crash the subprocess, and the engine
// must keep stepping at the reference interpreter's digest.
func TestRetiredOpcodesRefused(t *testing.T) {
	d := bench.CollatzBench(27).MustCheck()
	ref, err := interp.New(d)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	c := openCache(t, native.CacheOptions{})
	eng := launch(t, c, d, nil)
	for _, req := range []struct {
		op      byte
		payload []byte
	}{
		{'s', binary.LittleEndian.AppendUint64(nil, 1)},
		{'p', binary.LittleEndian.AppendUint32(nil, 0)},
		{'A', nil},
		{'S', nil},
	} {
		_, err := eng.Call(req.op, req.payload)
		var re *native.RemoteError
		if !errors.As(err, &re) || re.Msg != "unknown opcode" {
			t.Fatalf("opcode %q: got %v, want an unknown-opcode refusal", req.op, err)
		}
		if err := eng.Dead(); err != nil {
			t.Fatalf("opcode %q killed the engine: %v", req.op, err)
		}
		for k := 0; k < 10; k++ {
			ref.Cycle()
			eng.Cycle()
		}
		if a, b := sim.StateDigest(ref), sim.StateDigest(eng); a != b || ref.CycleCount() != eng.CycleCount() {
			t.Fatalf("after opcode %q: interp digest %016x at cycle %d, native %016x at cycle %d",
				req.op, a, ref.CycleCount(), b, eng.CycleCount())
		}
	}
}

// TestReaperKillAll launches an engine, does not close it, and checks that
// KillAll terminates the subprocess and empties the registry — the no-orphan
// guarantee daemon shutdown depends on.
func TestReaperKillAll(t *testing.T) {
	if native.Live() != 0 {
		t.Fatalf("leaked subprocesses from earlier tests: %d", native.Live())
	}
	d := bench.CollatzBench(17).MustCheck()
	c := openCache(t, native.CacheOptions{})
	eng, err := c.Engine(d, nil)
	if err != nil {
		t.Fatalf("Engine: %v", err)
	}
	if native.Live() != 1 {
		t.Fatalf("Live() = %d, want 1", native.Live())
	}
	pid := eng.Pid()
	if n := native.KillAll(5 * time.Second); n != 1 {
		t.Fatalf("KillAll signaled %d, want 1", n)
	}
	if native.Live() != 0 {
		t.Fatalf("Live() = %d after KillAll, want 0", native.Live())
	}
	// The child has been waited on, so its pid no longer exists.
	if err := syscall.Kill(pid, 0); err != syscall.ESRCH {
		t.Fatalf("subprocess %d still exists after KillAll (kill 0 = %v)", pid, err)
	}
	eng.Close()
}

// TestClosedEngineIsCollectable: a closed, dropped engine must become
// unreachable at once, design and all. Nothing its launch left behind —
// the handshake timer, the reaper table, the wait goroutine — may keep it
// alive until some timeout fires.
func TestClosedEngineIsCollectable(t *testing.T) {
	c := openCache(t, native.CacheOptions{})
	d := bench.CollatzBench(27).MustCheck()
	if _, err := c.Build(d, nil); err != nil {
		t.Fatalf("Build: %v", err)
	}
	// A daemon has other timers pending (request deadlines) on both sides
	// of the handshake timeout. Then the runtime keeps a stopped handshake
	// timer in its heap until that timeout passes: it drops stopped timers
	// eagerly only from the heap's head and tail. One P keeps every timer
	// in one heap; 32 due sooner and 160 due later put the handshake timer
	// in the middle.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 192; i++ {
		after := time.Minute
		if i < 32 {
			after = 15 * time.Second
		}
		tm := time.AfterFunc(after, func() {})
		defer tm.Stop()
	}
	collected := make(chan struct{})
	func() {
		e, err := c.Engine(d, nil)
		if err != nil {
			t.Fatalf("Engine: %v", err)
		}
		if err := e.StepN(3); err != nil {
			t.Fatalf("StepN: %v", err)
		}
		if err := e.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		runtime.SetFinalizer(e, func(*native.Engine) { close(collected) })
	}()
	// Wait without timers of our own, which would reshuffle the heap.
	for i := 0; i < 20; i++ {
		runtime.GC()
		for j := 0; j < 100; j++ {
			select {
			case <-collected:
				return
			default:
				runtime.Gosched()
			}
		}
	}
	t.Fatal("a closed native engine is still reachable after 20 forced GCs")
}

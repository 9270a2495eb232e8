package native

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"cuttlego/internal/ast"
	"cuttlego/internal/bits"
	"cuttlego/internal/gomodel"
	"cuttlego/internal/sim"
)

// handshakeTimeout bounds how long a freshly spawned binary may take to
// identify itself; a corrupt or wedged binary is killed rather than waited
// on forever.
const handshakeTimeout = 30 * time.Second

// maxFrame bounds a response frame; mirrors the emitted program's own
// request bound.
const maxFrame = 1 << 26

// RemoteError is a protocol-level refusal from the simulator subprocess
// (bad restore bytes, out-of-range register index). The subprocess is still
// healthy after one; transport failures are sticky and reported as crash
// errors instead.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "native: remote: " + e.Msg }

// RuleProfile is one rule's servo-side counters.
type RuleProfile struct {
	Rule     string
	Attempts uint64
	Commits  uint64
	Skips    uint64
}

// Engine supervises one compiled simulator subprocess and exposes it as a
// sim.Engine (plus sim.Snapshotter, sim.Advancer and sim.UntilRunner). The
// error-returning methods (StepN, PeekAll, TakeSnapshot, ...) are the
// primary API; the sim.Engine methods wrap them and panic on subprocess
// failure, which upstream diag.Guard boundaries convert into honest
// *diag.Internal errors.
//
// Every step is a run-until batch, whose reply carries the final state, so
// the local register mirror is always current: register reads, row reads
// and snapshots cost no round trip. The mirror is filled from a subprocess
// reply at launch and after every restore, never from the caller's data,
// and a dead or closed engine fails every read instead of serving it.
type Engine struct {
	design  *ast.Design
	key     string
	regIdx  map[string]int
	ruleIdx map[string]int

	cmd    *exec.Cmd
	stdin  *bufio.Writer
	inPipe io.WriteCloser
	out    *bufio.Reader
	errs   *tailBuf
	reap   *reapEntry

	waitDone chan struct{}
	waitErr  error

	mu     sync.Mutex
	dead   error
	closed bool
	cycles uint64
	fired  []byte
	mirror []uint64

	// rbuf holds the last response frame, wbuf the run-until request being
	// built and hdr a frame header; all are reused, so a steady stream of
	// batches allocates nothing. row is RunUntil's decoded row: registers,
	// then fired-rule words (sim.RowLen).
	rbuf, wbuf []byte
	hdr        [5]byte
	row        []uint64
}

var (
	_ sim.Engine      = (*Engine)(nil)
	_ sim.Snapshotter = (*Engine)(nil)
	_ sim.Advancer    = (*Engine)(nil)
	_ sim.UntilRunner = (*Engine)(nil)
)

// Launch spawns a compiled servo binary and performs the handshake,
// verifying that the binary simulates exactly the design the caller thinks
// it does (design hash, register and rule counts) before any step runs.
func Launch(d *ast.Design, res BuildResult) (*Engine, error) { return launch(d, res, nil) }

// launch is Launch, with the child owned by owner (nil for none).
func launch(d *ast.Design, res BuildResult, owner *Cache) (*Engine, error) {
	cmd := exec.Command(res.Path)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	inPipe, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("native: launch: %w", err)
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("native: launch: %w", err)
	}
	errs := &tailBuf{}
	cmd.Stderr = errs
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("native: launch %s: %w", res.Path, err)
	}
	e := &Engine{
		design:   d,
		key:      res.Key,
		regIdx:   make(map[string]int, len(d.Registers)),
		ruleIdx:  make(map[string]int, len(d.Rules)),
		cmd:      cmd,
		stdin:    bufio.NewWriter(inPipe),
		inPipe:   inPipe,
		out:      bufio.NewReader(outPipe),
		errs:     errs,
		waitDone: make(chan struct{}),
		fired:    make([]byte, (len(d.Rules)+7)/8),
		mirror:   make([]uint64, len(d.Registers)),
		row:      make([]uint64, sim.RowLen(d)),
	}
	for i, r := range d.Registers {
		e.regIdx[r.Name] = i
	}
	for i, r := range d.Rules {
		e.ruleIdx[r.Name] = i
	}
	e.reap = &reapEntry{pid: cmd.Process.Pid, done: e.waitDone, owner: owner}
	reaperAdd(e.reap)
	go func() {
		e.waitErr = cmd.Wait()
		close(e.waitDone)
	}()

	// A corrupt binary may never speak; bound the handshake. The timer
	// captures only the pid: a stopped timer can linger in the runtime's
	// timer heap until its deadline, and must not keep a closed engine and
	// its design reachable that long.
	pid := e.reap.pid
	hsTimer := time.AfterFunc(handshakeTimeout, func() {
		syscall.Kill(-pid, syscall.SIGKILL)
	})
	err = e.handshake(res.DesignHash)
	if err == nil {
		if _, _, _, err = e.runLocked(0, &sim.Watch{}); err != nil {
			err = fmt.Errorf("native: handshake: first state read: %w", err)
		}
	}
	hsTimer.Stop()
	if err != nil {
		e.kill()
		reaperRemove(e.reap)
		return nil, err
	}
	return e, nil
}

func (e *Engine) handshake(wantHash uint64) error {
	payload, err := e.readResp()
	if err != nil {
		return fmt.Errorf("native: handshake: %w", err)
	}
	if len(payload) != 22 || string(payload[:4]) != "KSRV" {
		return fmt.Errorf("native: handshake: malformed identification (%d bytes)", len(payload))
	}
	if v := binary.LittleEndian.Uint16(payload[4:6]); v != gomodel.ProtocolVersion {
		return fmt.Errorf("native: handshake: protocol version %d (want %d)", v, gomodel.ProtocolVersion)
	}
	if h := binary.LittleEndian.Uint64(payload[6:14]); h != wantHash {
		return fmt.Errorf("native: handshake: design hash %016x, want %016x — cached binary simulates a different design", h, wantHash)
	}
	if n := binary.LittleEndian.Uint32(payload[14:18]); n != uint32(len(e.design.Registers)) {
		return fmt.Errorf("native: handshake: %d registers, want %d", n, len(e.design.Registers))
	}
	if n := binary.LittleEndian.Uint32(payload[18:22]); n != uint32(len(e.design.Rules)) {
		return fmt.Errorf("native: handshake: %d rules, want %d", n, len(e.design.Rules))
	}
	return nil
}

// tailBuf keeps the last few KB of the child's stderr for crash reports.
type tailBuf struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuf) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 4096 {
		t.buf = t.buf[len(t.buf)-4096:]
	}
	t.mu.Unlock()
	return len(p), nil
}

func (t *tailBuf) tail() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

func (e *Engine) kill() {
	syscall.Kill(-e.reap.pid, syscall.SIGKILL)
	select {
	case <-e.waitDone:
	case <-time.After(10 * time.Second):
	}
}

// fail records a sticky transport failure: the subprocess is killed, waited
// on, and every future call reports the composed crash error.
func (e *Engine) fail(err error) error {
	if e.dead != nil {
		return e.dead
	}
	e.kill()
	msg := fmt.Sprintf("native: simulator subprocess failed: %v", err)
	if tail := e.errs.tail(); tail != "" {
		msg += "\nstderr: " + tail
	}
	e.dead = fmt.Errorf("%s", msg)
	return e.dead
}

// Pid returns the subprocess pid (for tests and diagnostics).
func (e *Engine) Pid() int { return e.reap.pid }

// Dead returns the sticky subprocess failure, if any.
func (e *Engine) Dead() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dead
}

func (e *Engine) writeFrame(op byte, payload []byte) error {
	hdr := e.hdr[:]
	binary.LittleEndian.PutUint32(hdr, uint32(1+len(payload)))
	hdr[4] = op
	if _, err := e.stdin.Write(hdr); err != nil {
		return err
	}
	if _, err := e.stdin.Write(payload); err != nil {
		return err
	}
	return e.stdin.Flush()
}

// readResp reads one response frame into the engine's reused buffer: the
// payload it returns is valid until the next round trip.
func (e *Engine) readResp() ([]byte, error) {
	hdr := e.hdr[:4]
	if _, err := io.ReadFull(e.out, hdr); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("frame length %d out of range", n)
	}
	if cap(e.rbuf) < int(n) {
		e.rbuf = make([]byte, n)
	}
	buf := e.rbuf[:n]
	if _, err := io.ReadFull(e.out, buf); err != nil {
		return nil, err
	}
	if buf[0] == 'E' {
		return nil, &RemoteError{Msg: string(buf[1:])}
	}
	if buf[0] != 'K' {
		return nil, fmt.Errorf("unknown response status %#x", buf[0])
	}
	return buf[1:], nil
}

// liveLocked returns the sticky crash error of a dead engine, or an error
// for a closed one: such an engine fails every call and every read.
func (e *Engine) liveLocked() error {
	if e.dead != nil {
		return e.dead
	}
	if e.closed {
		return fmt.Errorf("native: engine closed")
	}
	return nil
}

// callLocked performs one request/response round trip. Transport failures
// become sticky; RemoteErrors pass through without poisoning the engine.
func (e *Engine) callLocked(op byte, payload []byte) ([]byte, error) {
	if err := e.liveLocked(); err != nil {
		return nil, err
	}
	if err := e.writeFrame(op, payload); err != nil {
		return nil, e.fail(err)
	}
	resp, err := e.readResp()
	if err != nil {
		var re *RemoteError
		if asRemote(err, &re) {
			return nil, err
		}
		return nil, e.fail(err)
	}
	return resp, nil
}

func asRemote(err error, out **RemoteError) bool {
	re, ok := err.(*RemoteError)
	if ok {
		*out = re
	}
	return ok
}

// StepN executes n cycles in the subprocess: one run-until round trip with
// nothing to watch, which refreshes the cycle counter, fired flags and
// register mirror.
func (e *Engine) StepN(n uint64) error {
	_, _, err := e.runBatch(n, &sim.Watch{})
	return err
}

// maxBatchBytes bounds the rows one recording run-until reply carries, so
// a long run streams back in several frames instead of one huge one.
const maxBatchBytes = 1 << 24

// RunUntil implements sim.UntilRunner: the subprocess runs the cycles,
// evaluates the conditions' VM programs after each and stops at the first
// that holds, so a batch costs one round trip, rows included.
func (e *Engine) RunUntil(ctx context.Context, n uint64, w *sim.Watch) (ran uint64, hit int, err error) {
	batch := n
	if w.OnRow != nil {
		batch = max(1, maxBatchBytes/uint64(8+8*len(e.row)))
	}
	for ran < n {
		select {
		case <-ctx.Done():
			return ran, -1, ctx.Err()
		default:
		}
		got, hit, err := e.runBatch(min(n-ran, batch), w)
		ran += got
		if err != nil || hit >= 0 {
			return ran, hit, err
		}
	}
	return ran, -1, nil
}

// runBatch is one run-until round trip of at most n cycles, then the
// delivery of its rows to w.OnRow outside the lock.
func (e *Engine) runBatch(n uint64, w *sim.Watch) (uint64, int, error) {
	e.mu.Lock()
	ran, hit, rows, err := e.runLocked(n, w)
	cyc := e.cycles - ran
	e.mu.Unlock()
	if err != nil || w.OnRow == nil {
		return ran, hit, err
	}
	rowLen := 8 + 8*len(e.row)
	for ; len(rows) > 0; rows = rows[rowLen:] {
		for i := range e.row {
			e.row[i] = binary.LittleEndian.Uint64(rows[8+8*i:])
		}
		for k := binary.LittleEndian.Uint64(rows); k > 0; k-- {
			cyc++
			if err := w.OnRow(cyc, e.row); err != nil {
				return ran, -1, err
			}
		}
	}
	return ran, hit, nil
}

// runLocked sends one run-until request of at most n cycles under w's
// conditions and takes the cycle count, fired flags and final state from
// the reply. It returns the cycles run, the condition that held (or -1)
// and, when w records, the reply's row entries, which stay valid until the
// next round trip.
func (e *Engine) runLocked(n uint64, w *sim.Watch) (uint64, int, []byte, error) {
	p := binary.LittleEndian.AppendUint64(e.wbuf[:0], n)
	if w.OnRow != nil {
		p = append(p, 1)
	} else {
		p = append(p, 0)
	}
	p = binary.LittleEndian.AppendUint32(p, uint32(len(w.Conds)))
	for _, c := range w.Conds {
		code := c.Code()
		p = binary.LittleEndian.AppendUint32(p, uint32(len(code)))
		for _, word := range code {
			p = binary.LittleEndian.AppendUint64(p, word)
		}
	}
	e.wbuf = p
	resp, err := e.callLocked('u', p)
	if err != nil {
		return 0, -1, nil, err
	}
	nregs, fb := len(e.mirror), len(e.fired)
	hdr := 8 + fb + 8 + 4 + 4
	if len(resp) < hdr+8*nregs {
		return 0, -1, nil, e.fail(fmt.Errorf("run-until: response length %d", len(resp)))
	}
	cycles := binary.LittleEndian.Uint64(resp)
	ran := binary.LittleEndian.Uint64(resp[8+fb:])
	hit := int(int32(binary.LittleEndian.Uint32(resp[16+fb:])))
	entries := int(binary.LittleEndian.Uint32(resp[20+fb:]))
	rowLen := 8 + 8*len(e.row)
	rows := resp[hdr : len(resp)-8*nregs]
	var sum uint64
	for i := 0; i+rowLen <= len(rows); i += rowLen {
		sum += binary.LittleEndian.Uint64(rows[i:])
	}
	if len(resp) != hdr+entries*rowLen+8*nregs || ran > n || hit < -1 || hit >= len(w.Conds) ||
		hit >= 0 && ran == 0 || w.OnRow != nil && sum != ran {
		return 0, -1, nil, e.fail(fmt.Errorf("run-until: malformed response (%d bytes, %d cycles, hit %d, %d rows)", len(resp), ran, hit, sum))
	}
	e.cycles = cycles
	copy(e.fired, resp[8:8+fb])
	final := resp[len(resp)-8*nregs:]
	for i := range e.mirror {
		e.mirror[i] = binary.LittleEndian.Uint64(final[8*i:])
	}
	return ran, hit, rows, nil
}

// PeekAll returns a copy of every register's payload, in declaration
// order, from the mirror the last reply left current.
func (e *Engine) PeekAll() ([]uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.liveLocked(); err != nil {
		return nil, err
	}
	return append([]uint64(nil), e.mirror...), nil
}

// Poke overwrites register i.
func (e *Engine) Poke(i int, v uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	payload := binary.LittleEndian.AppendUint32(nil, uint32(i))
	payload = binary.LittleEndian.AppendUint64(payload, v)
	if _, err := e.callLocked('P', payload); err != nil {
		return err
	}
	// The subprocess masks the value to the register's width the same way.
	e.mirror[i] = v & bits.Mask(e.design.Registers[i].Type.BitWidth())
	return nil
}

// TakeSnapshot captures the subprocess state as a sim.Snapshot, built from
// the mirror and cycle count with no round trip: registers plus the cycle
// count are the whole KSNP payload.
func (e *Engine) TakeSnapshot() (sim.Snapshot, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.liveLocked(); err != nil {
		return sim.Snapshot{}, err
	}
	s := sim.Snapshot{Cycle: e.cycles, Regs: make([]bits.Bits, len(e.mirror))}
	for i, r := range e.design.Registers {
		s.Regs[i] = bits.New(r.Type.BitWidth(), e.mirror[i])
	}
	return s, nil
}

// RestoreSnapshot rewinds the subprocess to a captured snapshot, then reads
// the restored state back with a 0-cycle run-until, so the mirror and cycle
// count come from the subprocess rather than from s.
func (e *Engine) RestoreSnapshot(s sim.Snapshot) error {
	raw, err := s.MarshalBinary()
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, err := e.callLocked('R', raw); err != nil {
		return err
	}
	_, _, _, err = e.runLocked(0, &sim.Watch{})
	return err
}

// Profile fetches the per-rule attempt/commit/skip counters.
func (e *Engine) Profile() ([]RuleProfile, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	resp, err := e.callLocked('f', nil)
	if err != nil {
		return nil, err
	}
	if len(resp) != 24*len(e.design.Rules) {
		return nil, e.fail(fmt.Errorf("profile: response length %d", len(resp)))
	}
	out := make([]RuleProfile, len(e.design.Rules))
	for i := range out {
		out[i] = RuleProfile{
			Rule:     e.design.Rules[i].Name,
			Attempts: binary.LittleEndian.Uint64(resp[24*i:]),
			Commits:  binary.LittleEndian.Uint64(resp[24*i+8:]),
			Skips:    binary.LittleEndian.Uint64(resp[24*i+16:]),
		}
	}
	return out, nil
}

// Close shuts the subprocess down: a best-effort quit, then escalation to a
// process-group kill if it lingers. Always reaps the child.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	alreadyDead := e.dead != nil
	if !alreadyDead {
		// Best-effort graceful quit; ignore errors, the kill path follows.
		if err := e.writeFrame('q', nil); err == nil {
			e.readResp()
		}
	}
	e.inPipe.Close()
	e.mu.Unlock()

	select {
	case <-e.waitDone:
	case <-time.After(5 * time.Second):
		e.kill()
	}
	reaperRemove(e.reap)
	return nil
}

// --- sim.Engine facade -----------------------------------------------------

var _ sim.RowReader = (*Engine)(nil)

// Design implements sim.Engine.
func (e *Engine) Design() *ast.Design { return e.design }

// Cycle implements sim.Engine. Subprocess failures panic (toolchain-bug
// territory); diag.Guard boundaries upstream convert them to errors.
func (e *Engine) Cycle() {
	if err := e.StepN(1); err != nil {
		panic(err)
	}
}

// Advance implements sim.Advancer: a whole run of cycles in one round trip.
func (e *Engine) Advance(n uint64) uint64 {
	if err := e.StepN(n); err != nil {
		panic(err)
	}
	return n
}

// Reg implements sim.Engine, from the mirror.
func (e *Engine) Reg(name string) bits.Bits {
	i, ok := e.regIdx[name]
	if !ok {
		panic(fmt.Sprintf("native: unknown register %q", name))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.liveLocked(); err != nil {
		panic(err)
	}
	return bits.New(e.design.Registers[i].Type.BitWidth(), e.mirror[i])
}

// ReadRow implements sim.RowReader: the whole row from the mirror.
func (e *Engine) ReadRow(dst []uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.liveLocked(); err != nil {
		panic(err)
	}
	copy(dst[:len(e.mirror)], e.mirror)
}

// ReadFired implements sim.RowReader: the last reply's fired flags.
func (e *Engine) ReadFired(dst []uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	clear(dst)
	for i, b := range e.fired {
		dst[i>>3] |= uint64(b) << (8 * (i & 7))
	}
}

// SetReg implements sim.Engine.
func (e *Engine) SetReg(name string, v bits.Bits) {
	i, ok := e.regIdx[name]
	if !ok {
		panic(fmt.Sprintf("native: unknown register %q", name))
	}
	if err := e.Poke(i, v.Val); err != nil {
		panic(err)
	}
}

// CycleCount implements sim.Engine.
func (e *Engine) CycleCount() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cycles
}

// RuleFired implements sim.Engine.
func (e *Engine) RuleFired(rule string) bool {
	i, ok := e.ruleIdx[rule]
	if !ok {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fired[i>>3]&(1<<(i&7)) != 0
}

// Snapshot implements sim.Snapshotter.
func (e *Engine) Snapshot() sim.Snapshot {
	s, err := e.TakeSnapshot()
	if err != nil {
		panic(err)
	}
	return s
}

// Restore implements sim.Snapshotter.
func (e *Engine) Restore(s sim.Snapshot) {
	if err := e.RestoreSnapshot(s); err != nil {
		panic(err)
	}
}

// Engine builds (or reuses) the design's compiled binary and launches a
// supervised subprocess over it, returned as a *Engine. A cached binary
// that fails to launch or identifies as the wrong design is quarantined and
// rebuilt once before giving up. The sim.Engine result is what lets
// engine.Spec.Build take the cache as an engine.Compiler.
func (c *Cache) Engine(d *ast.Design, b *gomodel.Bindings) (sim.Engine, error) {
	res, err := c.Build(d, b)
	if err != nil {
		return nil, err
	}
	eng, lerr := c.Launch(d, res)
	if lerr == nil {
		return eng, nil
	}
	if !res.Cached {
		return nil, lerr
	}
	c.Quarantine(res.Key, lerr)
	if res, err = c.Build(d, b); err != nil {
		return nil, err
	}
	if eng, err = c.Launch(d, res); err != nil {
		return nil, err
	}
	return eng, nil
}

// Launch is the package-level Launch, with the child owned by the cache
// (see Cache.KillAll).
func (c *Cache) Launch(d *ast.Design, res BuildResult) (*Engine, error) { return launch(d, res, c) }

package gomodel

import (
	_ "embed"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"

	"cuttlego/internal/ast"
)

// The servo emission mode turns the generated program from a batch artifact
// (simulate -cycles N, print the final state) into a long-lived simulation
// server: the process speaks a length-prefixed binary protocol over
// stdin/stdout — batched run-until, poke by register index, KSNP-compatible
// restore, per-rule profiles — so a supervisor (internal/native) can drive
// a natively compiled model as a sim.Engine. The protocol is
// deliberately tiny and fully self-contained in the emitted source: the
// binary has no dependency on this module.
//
// Frame layout, all integers little-endian:
//
//	request:  u32 length | u8 opcode | payload (length covers opcode+payload)
//	response: u32 length | u8 status ('K' ok, 'E' error) | payload
//
// On startup the program sends one unprompted ok-response whose payload is
// the handshake: "KSRV" magic, u16 protocol version, u64 design hash
// (DesignHash of the emitted design), u32 register count, u32 rule count.
// The supervisor verifies the hash before issuing the first step, so a
// stale or mismatched cache entry can never silently simulate the wrong
// design.
//
// Opcodes (any other is answered with an "unknown opcode" error):
//
//	'u' run-until (see below)     -> (see below)
//	'P' poke     u32 index, u64 v -> (empty)
//	'R' restore  KSNP v2 bytes    -> (empty)
//	'f' profile  (empty)          -> nrules x (u64 attempts, commits, skips)
//	'q' quit     (empty)          -> (empty), then exit 0
//
// Run-until runs up to n cycles and evaluates stop conditions, programs
// for the condition VM (condvm.go, emitted into the servo verbatim), after
// each one; it stops after the first cycle at which one holds. It is the
// only way to step and to read state: with no conditions it is a plain
// step of n cycles, and with n = 0 a read of the cycle count, fired flags
// and state. Payload:
//
//	u64 n | u8 flags (bit 0: record rows) | u32 nconds |
//	nconds x (u32 nwords | nwords x u64 program)
//
// Reply: u64 cycleCount | fired bitmap | u64 cycles run | u32 index of the
// condition that held (0xffffffff: none) | u32 nentries | nentries x (u64
// repeat | nrow x u64 row) | nregs x u64 final state. A row is the watched
// row of sim.RowLen: the nregs register payloads, then ceil(nrules/64)
// fired-rule words (bit i%64 of word i/64: rule i committed). Rows are
// built only when the request has conditions, which evaluate over them,
// or records. When recording, the entries hold one row per cycle run, in
// order, the first for cycle cycleCount-run+1; an activity-tier fixed
// point sends its remaining cycles as the repeat count of its row rather
// than as copies. Without recording there are no entries. Version 2 of
// the protocol added 'u'; version 3 retired step, peek, peek-all and
// snapshot, which 'u' and the supervisor's register mirror cover; version
// 4 added the fired-rule words to rows.
const (
	// ProtocolVersion is the servo wire protocol version; the handshake
	// carries it and the supervisor rejects mismatches.
	ProtocolVersion = 4

	// EmitterVersion changes whenever the generated code's observable
	// behavior can change; it is part of the native tier's compile-cache
	// key, so stale binaries miss rather than lie.
	EmitterVersion = "gomodel-servo/4"
)

// condVMSource is condvm.go, whose body every servo program carries.
//
//go:embed condvm.go
var condVMSource string

// Bindings supply the Go half of a design's external world so it can be
// serialized into the emitted program: implementations for the design's
// external functions, top-level declarations they need (memory images,
// testbench state), and an optional between-cycles testbench body.
//
// All injected code must be deterministic and stdlib-only. Register writes
// from AfterCycle must go through the emitted bset(reg, v) helper — it
// updates both the committed and accumulated stores and wakes any parked
// rules — and every externally visible state change (memory writes
// included) must be accompanied by at least one bset call, because a cycle
// in which no rule fired and bset was never called is treated as a fixed
// point and fast-forwarded.
type Bindings struct {
	// Imports lists extra stdlib packages the injected code needs.
	Imports []string
	// Prelude holds top-level declarations emitted verbatim.
	Prelude string
	// ExtFuns maps an external function name to the body of its Go
	// implementation. The emitted function is
	//
	//	func ext_<ident>(a0, a1, ... uint64) uint64 { <body> }
	//
	// with one uint64 argument per declared argument width; the body must
	// return the result masked to the declared return width.
	ExtFuns map[string]string
	// AfterCycle holds statements run after every simulated cycle (the
	// embedded testbench), emitted verbatim inside func afterCycle().
	AfterCycle string
}

// RegIdent returns the identifier the emitted program uses for a register's
// index constant, for binding authors referencing registers by name.
func RegIdent(name string) string { return "r" + goIdent(name) }

// DesignHash fingerprints a design's simulated identity — name, registers
// (name, width, reset value), schedule, external function signatures, and
// the printed rule bodies. The emitted servo program embeds it and reports
// it during the handshake; a supervisor recomputes it from the design it
// thinks it is running and refuses to proceed on a mismatch.
func DesignHash(d *ast.Design) uint64 {
	h := fnv.New64a()
	io.WriteString(h, d.Name)
	for _, r := range d.Registers {
		fmt.Fprintf(h, "|reg:%s:%d:%x", r.Name, r.Type.BitWidth(), r.Init.Val)
	}
	fmt.Fprintf(h, "|sched:%v", d.Schedule)
	for _, f := range d.ExtFuns {
		fmt.Fprintf(h, "|ext:%s:%v:%d", f.Name, f.ArgWidths, f.Ret.BitWidth())
	}
	io.WriteString(h, "|rules:")
	io.WriteString(h, d.Print().Text())
	return h.Sum64()
}

// EmitServo generates the servo-mode Go source for a checked design.
// Designs with external functions are supported when the bindings implement
// every one of them; Goldbergian registers are rejected as in Emit.
func EmitServo(d *ast.Design, b *Bindings) (string, error) {
	if !d.Checked() {
		return "", fmt.Errorf("gomodel: design %q is not checked", d.Name)
	}
	if b == nil {
		b = &Bindings{}
	}
	for _, f := range d.ExtFuns {
		if _, ok := b.ExtFuns[f.Name]; !ok {
			return "", fmt.Errorf("gomodel: design %q calls external function %q, which the servo bindings do not implement", d.Name, f.Name)
		}
	}
	g, err := prepare(d)
	if err != nil {
		return "", err
	}
	g.servo = true
	g.bind = b
	g.emitServoProgram()
	return g.sb.String(), nil
}

func (g *gen) emitServoProgram() {
	d := g.d
	imports := []string{"bufio", "encoding/binary", "hash/crc32", "io", "os"}
	imports = append(imports, g.bind.Imports...)
	sort.Strings(imports)
	imports = dedupStrings(imports)
	g.header(imports)
	g.stateDecls()
	g.servoDecls()
	if strings.TrimSpace(g.bind.Prelude) != "" {
		g.line("")
		g.rawBlock(g.bind.Prelude, 0)
	}
	g.line("")
	g.runtimeHelpers()
	g.line("")
	g.servoHelpers()
	g.line("")
	body, ok := strings.CutPrefix(condVMSource, "package gomodel\n")
	if !ok {
		panic("gomodel: condvm.go must open with its package clause")
	}
	g.sb.WriteString(strings.TrimLeft(body, "\n"))
	g.extFuns()
	g.afterCycleFunc()

	for i := range d.Rules {
		g.line("")
		g.ruleFunc(i)
	}

	g.line("")
	g.cycleFunc()
	g.line("")
	g.runUntilFunc()
	g.line("")
	g.snapDecodeFunc()
	g.line("")
	g.servoMain()
}

// rawBlock emits injected code verbatim at the given indent.
func (g *gen) rawBlock(code string, indent int) {
	code = strings.Trim(code, "\n")
	for _, ln := range strings.Split(code, "\n") {
		if strings.TrimSpace(ln) == "" {
			g.sb.WriteByte('\n')
			continue
		}
		g.sb.WriteString(strings.Repeat("\t", indent))
		g.sb.WriteString(ln)
		g.sb.WriteByte('\n')
	}
}

func (g *gen) servoDecls() {
	d := g.d
	g.line("")
	widths := make([]string, len(d.Registers))
	for i, r := range d.Registers {
		widths[i] = fmt.Sprintf("%d", r.Type.BitWidth())
	}
	g.line("// Servo bookkeeping: declared register widths (for canonical")
	g.line("// snapshots), the cycle counter, last-cycle fired flags, and the")
	g.line("// per-rule attempt/commit/skip profile.")
	g.line("var widths = [%d]byte{%s}", len(d.Registers), strings.Join(widths, ", "))
	g.line("var cycles uint64")
	g.line("var fired [%d]bool", len(d.Rules))
	g.line("var profAttempt, profCommit, profSkip [%d]uint64", len(d.Rules))
	g.line("var benchDirty bool")
}

func (g *gen) servoHelpers() {
	g.line("// bset drives a register from outside the rules (testbench writes,")
	g.line("// pokes): it updates both the committed and accumulated stores and")
	g.line("// marks the cycle dirty so quiescence fast-forwarding stays sound.")
	g.line("func bset(r int, v uint64) {")
	g.line("\tv &= maskw(widths[r])")
	g.line("\tstate[r] = v")
	g.line("\tacc[r] = v")
	g.line("\tbenchDirty = true")
	if g.activity {
		g.line("\tlastWrite[r] = gen")
	}
	g.line("}")
	g.line("")
	g.line("func maskw(w byte) uint64 {")
	g.line("\tif w >= 64 {")
	g.line("\t\treturn ^uint64(0)")
	g.line("\t}")
	g.line("\treturn uint64(1)<<w - 1")
	g.line("}")
	g.line("")
	g.line("var _ = [...]any{bset, maskw}")
}

func (g *gen) extFuns() {
	d := g.d
	for _, f := range d.ExtFuns {
		args := make([]string, len(f.ArgWidths))
		for i := range f.ArgWidths {
			args[i] = fmt.Sprintf("a%d", i)
		}
		g.line("")
		g.line("// external function %s (%d-bit result)", f.Name, f.Ret.BitWidth())
		decl := "func ext_" + goIdent(f.Name) + "("
		if len(args) > 0 {
			decl += strings.Join(args, ", ") + " uint64"
		}
		decl += ") uint64 {"
		g.line("%s", decl)
		g.rawBlock(g.bind.ExtFuns[f.Name], 1)
		g.line("}")
	}
}

func (g *gen) afterCycleFunc() {
	g.line("")
	g.line("// afterCycle is the embedded testbench, run between cycles.")
	g.line("func afterCycle() {")
	if strings.TrimSpace(g.bind.AfterCycle) != "" {
		g.rawBlock(g.bind.AfterCycle, 1)
	}
	g.line("}")
}

// runUntilFunc emits runUntil, the run-until request's body: n cycles with
// the embedded testbench, the row built, the stop conditions evaluated over
// it and the row recorded, after every one. On the activity tier a cycle
// in which no rule fired and the testbench wrote nothing is a fixed point:
// no condition can change value, so the remaining cycles only advance the
// counter and are recorded as a repeat count.
func (g *gen) runUntilFunc() {
	fbLen := (len(g.d.Rules) + 7) / 8
	rowLen := len(g.d.Registers) + (len(g.d.Rules)+63)/64
	moved, fixed := "\tcycle()", ""
	if g.activity {
		moved = `	moved := cycle()`
		fixed = `
		if !moved && !benchDirty {
			k := n - ran
			cycles += k
			ran += k
			if record {
				binary.LittleEndian.PutUint64(resp[len(resp)-8-8*len(untilRow):], 1+k)
			}
			break
		}`
	}
	gen := ""
	if g.activity {
		gen = `
		if benchDirty {
			gen++
		}`
	}
	g.rawBlock(fmt.Sprintf(`// untilCond is one stop condition of a run-until request.
type untilCond struct{ prog, stk, loc []uint64 }

// untilResp is the run-until reply buffer, reused between requests.
var untilResp []byte

// untilRow is the watched row: the registers, then the fired-rule words.
var untilRow [%[5]d]uint64

// runUntil serves a run-until request, returning the reply payload or an
// error message.
func runUntil(payload []byte) ([]byte, string) {
	if len(payload) < 13 {
		return nil, "run-until: short payload"
	}
	n := binary.LittleEndian.Uint64(payload)
	record := payload[8]&1 != 0
	nc := binary.LittleEndian.Uint32(payload[9:])
	rest := payload[13:]
	var conds []untilCond
	for k := uint32(0); k < nc; k++ {
		if len(rest) < 4 {
			return nil, "run-until: truncated condition"
		}
		nw := uint64(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if uint64(len(rest)) < 8*nw {
			return nil, "run-until: truncated condition"
		}
		prog := make([]uint64, nw)
		for i := range prog {
			prog[i] = binary.LittleEndian.Uint64(rest[8*i:])
		}
		rest = rest[8*nw:]
		stack, locals, ok := vmCheck(prog, len(untilRow))
		if !ok {
			return nil, "run-until: malformed condition program"
		}
		conds = append(conds, untilCond{prog, make([]uint64, stack), make([]uint64, locals)})
	}
	if len(rest) != 0 {
		return nil, "run-until: trailing bytes"
	}
	watch := record || len(conds) > 0
	const hdr = 8 + %[1]d + 8 + 4 + 4
	resp := append(untilResp[:0], make([]byte, hdr)...)
	var ran uint64
	var entries uint32
	hit := ^uint32(0)
	for ran < n {
		benchDirty = false
	%[2]s
		afterCycle()%[4]s
		cycles++
		ran++
		if watch {
			copy(untilRow[:], state[:])
			fw := untilRow[len(state):]
			clear(fw)
			for i, f := range fired {
				if f {
					fw[i>>6] |= 1 << (i & 63)
				}
			}
			if record {
				resp = binary.LittleEndian.AppendUint64(resp, 1)
				for _, v := range untilRow {
					resp = binary.LittleEndian.AppendUint64(resp, v)
				}
				entries++
			}
			for k := range conds {
				c := &conds[k]
				if vmEval(c.prog, untilRow[:], c.stk, c.loc) != 0 {
					hit = uint32(k)
					break
				}
			}
			if hit != ^uint32(0) {
				break
			}
		}%[3]s
	}
	for _, v := range state {
		resp = binary.LittleEndian.AppendUint64(resp, v)
	}
	binary.LittleEndian.PutUint64(resp, cycles)
	for i, f := range fired {
		if f {
			resp[8+i>>3] |= 1 << (i & 7)
		}
	}
	binary.LittleEndian.PutUint64(resp[8+%[1]d:], ran)
	binary.LittleEndian.PutUint32(resp[16+%[1]d:], hit)
	binary.LittleEndian.PutUint32(resp[20+%[1]d:], entries)
	untilResp = resp
	return resp, ""
}`, fbLen, moved, fixed, gen, rowLen), 0)
}

// snapDecodeFunc emits the KSNP v2 decoder (the wire format internal/sim
// uses, so supervisor-side snapshots restore bit-for-bit).
func (g *gen) snapDecodeFunc() {
	nregs := len(g.d.Registers)
	g.line("var crcTable = crc32.MakeTable(crc32.Castagnoli)")
	g.line("")
	g.line("// snapDecode replaces the architectural state from KSNP v2 bytes,")
	g.line("// returning an error message (empty on success). Parking state and")
	g.line("// fired flags reset: a restore is a discontinuity, not a cycle.")
	g.line("func snapDecode(data []byte) string {")
	g.indent++
	g.line("if len(data) < 20 || string(data[:4]) != \"KSNP\" {")
	g.line("\treturn \"snapshot: bad header\"")
	g.line("}")
	g.line("if binary.LittleEndian.Uint16(data[4:6]) != 2 || binary.LittleEndian.Uint16(data[6:8]) != 0 {")
	g.line("\treturn \"snapshot: bad version\"")
	g.line("}")
	g.line("body := data[:len(data)-4]")
	g.line("if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(data[len(data)-4:]) {")
	g.line("\treturn \"snapshot: checksum mismatch\"")
	g.line("}")
	g.line("cyc := binary.LittleEndian.Uint64(body[8:16])")
	g.line("rest := body[16:]")
	g.line("n, k := binary.Uvarint(rest)")
	g.line("if k <= 0 || n != %d {", nregs)
	g.line("\treturn \"snapshot: register count mismatch\"")
	g.line("}")
	g.line("rest = rest[k:]")
	g.line("var ns [%d]uint64", nregs)
	g.line("for i := range state {")
	g.line("\tw, k := binary.Uvarint(rest)")
	g.line("\tif k <= 0 || w != uint64(widths[i]) {")
	g.line("\t\treturn \"snapshot: register width mismatch\"")
	g.line("\t}")
	g.line("\trest = rest[k:]")
	g.line("\tnb := (int(w) + 7) / 8")
	g.line("\tif len(rest) < nb {")
	g.line("\t\treturn \"snapshot: truncated\"")
	g.line("\t}")
	g.line("\tvar v uint64")
	g.line("\tfor b := 0; b < nb; b++ {")
	g.line("\t\tv |= uint64(rest[b]) << (8 * b)")
	g.line("\t}")
	g.line("\trest = rest[nb:]")
	g.line("\tif v&^maskw(byte(w)) != 0 {")
	g.line("\t\treturn \"snapshot: non-canonical payload\"")
	g.line("\t}")
	g.line("\tns[i] = v")
	g.line("}")
	g.line("if len(rest) != 0 {")
	g.line("\treturn \"snapshot: trailing bytes\"")
	g.line("}")
	g.line("for i := range state {")
	g.line("\tstate[i] = ns[i]")
	g.line("\tacc[i] = ns[i]")
	g.line("}")
	g.line("cycles = cyc")
	g.line("fired = [%d]bool{}", len(g.d.Rules))
	if g.activity {
		g.line("gen = 1")
		g.line("lastWrite = [%d]uint64{}", nregs)
		g.line("parkGen = [%d]uint64{}", len(g.d.Schedule))
		g.line("guardFail = false")
	}
	g.line("benchDirty = false")
	g.line("return \"\"")
	g.indent--
	g.line("}")
}

func (g *gen) servoMain() {
	d := g.d
	nregs := len(d.Registers)
	nrules := len(d.Rules)
	g.line("func readFrame(in *bufio.Reader) (byte, []byte, bool) {")
	g.line("\tvar hdr [4]byte")
	g.line("\tif _, err := io.ReadFull(in, hdr[:]); err != nil {")
	g.line("\t\treturn 0, nil, false // supervisor closed the pipe")
	g.line("\t}")
	g.line("\tn := binary.LittleEndian.Uint32(hdr[:])")
	g.line("\tif n == 0 || n > 1<<26 {")
	g.line("\t\tos.Exit(3) // corrupt stream: unrecoverable")
	g.line("\t}")
	g.line("\tbuf := make([]byte, n)")
	g.line("\tif _, err := io.ReadFull(in, buf); err != nil {")
	g.line("\t\treturn 0, nil, false")
	g.line("\t}")
	g.line("\treturn buf[0], buf[1:], true")
	g.line("}")
	g.line("")
	g.line("func reply(out *bufio.Writer, status byte, payload []byte) {")
	g.line("\tvar hdr [4]byte")
	g.line("\tbinary.LittleEndian.PutUint32(hdr[:], uint32(1+len(payload)))")
	g.line("\tout.Write(hdr[:])")
	g.line("\tout.WriteByte(status)")
	g.line("\tout.Write(payload)")
	g.line("\tif out.Flush() != nil {")
	g.line("\t\tos.Exit(3) // supervisor closed the pipe mid-reply")
	g.line("\t}")
	g.line("}")
	g.line("")
	g.line("func replyErr(out *bufio.Writer, msg string) {")
	g.line("\treply(out, 'E', []byte(msg))")
	g.line("}")
	g.line("")
	g.line("func main() {")
	g.indent++
	g.line("in := bufio.NewReader(os.Stdin)")
	g.line("out := bufio.NewWriter(os.Stdout)")
	g.line("// Handshake: identify the simulated design before the first step.")
	g.line("hs := make([]byte, 0, 22)")
	g.line("hs = append(hs, 'K', 'S', 'R', 'V')")
	g.line("hs = binary.LittleEndian.AppendUint16(hs, %d)", ProtocolVersion)
	g.line("hs = binary.LittleEndian.AppendUint64(hs, %#x)", DesignHash(d))
	g.line("hs = binary.LittleEndian.AppendUint32(hs, %d)", nregs)
	g.line("hs = binary.LittleEndian.AppendUint32(hs, %d)", nrules)
	g.line("reply(out, 'K', hs)")
	g.line("for {")
	g.indent++
	g.line("op, payload, ok := readFrame(in)")
	g.line("if !ok {")
	g.line("\treturn")
	g.line("}")
	g.line("switch op {")
	g.line("case 'P':")
	g.indent++
	g.line("if len(payload) != 12 {")
	g.line("\treplyErr(out, \"poke: want 12-byte payload\")")
	g.line("\tcontinue")
	g.line("}")
	g.line("i := binary.LittleEndian.Uint32(payload)")
	g.line("if i >= %d {", nregs)
	g.line("\treplyErr(out, \"poke: register index out of range\")")
	g.line("\tcontinue")
	g.line("}")
	g.line("bset(int(i), binary.LittleEndian.Uint64(payload[4:]))")
	g.line("reply(out, 'K', nil)")
	g.indent--
	g.line("case 'R':")
	g.indent++
	g.line("if msg := snapDecode(payload); msg != \"\" {")
	g.line("\treplyErr(out, msg)")
	g.line("\tcontinue")
	g.line("}")
	g.line("reply(out, 'K', nil)")
	g.indent--
	g.line("case 'f':")
	g.indent++
	g.line("resp := make([]byte, 0, 24*%d)", nrules)
	g.line("for i := 0; i < %d; i++ {", nrules)
	g.line("\tresp = binary.LittleEndian.AppendUint64(resp, profAttempt[i])")
	g.line("\tresp = binary.LittleEndian.AppendUint64(resp, profCommit[i])")
	g.line("\tresp = binary.LittleEndian.AppendUint64(resp, profSkip[i])")
	g.line("}")
	g.line("reply(out, 'K', resp)")
	g.indent--
	g.line("case 'u':")
	g.indent++
	g.line("resp, msg := runUntil(payload)")
	g.line("if msg != \"\" {")
	g.line("\treplyErr(out, msg)")
	g.line("\tcontinue")
	g.line("}")
	g.line("reply(out, 'K', resp)")
	g.indent--
	g.line("case 'q':")
	g.indent++
	g.line("reply(out, 'K', nil)")
	g.line("return")
	g.indent--
	g.line("default:")
	g.indent++
	g.line("replyErr(out, \"unknown opcode\")")
	g.indent--
	g.line("}")
	g.indent--
	g.line("}")
	g.indent--
	g.line("}")
}

func dedupStrings(in []string) []string {
	out := in[:0]
	for i, s := range in {
		if i == 0 || s != in[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// The fused backend: the levelized plan is pre-decoded into a dense array
// of fixed-size ops with all per-op constants (masks, shift amounts,
// operand widths) computed once, then partitioned into basic-block
// "superops" — one closure per block executing a straight-line slice of
// the decoded stream over the flat vals array. Compared to the closure
// backend this trades one indirect call per net for one predictable
// switch per decoded op plus much better locality (the op stream is a
// contiguous array instead of a forest of heap-allocated closures), and
// it fuses single-use producer nets into their consumers:
//
//   - mux(eq(x, y), a, b)  becomes one MUXEQ op when the eq feeds only
//     the mux (the comparison result is never materialized);
//   - and(x, not(y)) becomes one ANDNOT op under the same single-use
//     condition (the shape of every will-fire chain the Bluespec-style
//     scheduler emits).
//
// External calls terminate blocks (they are opaque calls, the natural
// basic-block boundary) and go through a side table with per-call
// preallocated argument buffers.
package rtlsim

import (
	"cuttlego/internal/ast"
	"cuttlego/internal/bits"
	"cuttlego/internal/circuit"
)

// Fused opcodes. The decoder specializes each net kind+operator pair so
// the executor's switch does no further dispatch on ast.Op.
const (
	fNot uint8 = iota
	fSext
	fCopy // zero-extend: values are already zero-extended raw payloads
	fSlice
	fAdd
	fSub
	fMul
	fAnd
	fOr
	fXor
	fEq
	fNeq
	fLtu
	fGeu
	fLts
	fGes
	fSll
	fSrl
	fSra
	fConcat
	fMux
	fMuxEq  // vals[dst] = vals[a]==vals[b] ? vals[c] : vals[d]
	fAndNot // vals[dst] = vals[a] &^ vals[b]
	fExt    // external call via the side table (index in a)
)

// fusedOp is one pre-decoded operation. All fields are flat scalars so the
// decoded stream is one contiguous allocation.
type fusedOp struct {
	code       uint8
	sha, shb   uint8 // sign-extension shifts, slice lo, concat width, shift bound
	dst        int32
	a, b, c, d int32
	mask       uint64
}

// fusedExt is one external call: the function, its pre-resolved argument
// nets and widths, and a reusable argument buffer.
type fusedExt struct {
	fn     func([]bits.Bits) bits.Bits
	args   []int32
	widths []int
	buf    []bits.Bits
	dst    int32
}

// maxBlock caps superop block length so pathological flat designs still
// split into cache-friendly chunks.
const maxBlock = 4096

// compileFused decodes the plan and partitions it into block closures.
func (s *Simulator) compileFused() []func() {
	ops, exts := s.decodePlan()

	// Partition into superop blocks: external calls end a block, and
	// blocks never exceed maxBlock ops.
	var blocks []func()
	vals := s.vals
	start := 0
	flush := func(end int) {
		if end > start {
			blk := ops[start:end:end]
			extv := exts
			blocks = append(blocks, func() { runFused(vals, blk, extv) })
			start = end
		}
	}
	for k := range ops {
		if ops[k].code == fExt || k-start >= maxBlock {
			flush(k + 1)
		}
	}
	flush(len(ops))
	return blocks
}

// decodePlan pre-decodes the whole levelized plan into the flat fused-op
// stream plus the external-call side table; compileFused slices the
// stream into superop blocks.
func (s *Simulator) decodePlan() ([]fusedOp, []fusedExt) {
	nets := s.ckt.Nets

	// Use counts decide which producer nets can be fused away: a net
	// consumed exactly once and never read as a root (register next value
	// or will-fire signal) needs no slot written.
	uses := make([]int, len(nets))
	rooted := make([]bool, len(nets))
	for _, n := range nets {
		for _, a := range n.Args {
			uses[a]++
		}
	}
	for _, ni := range s.ckt.Next {
		rooted[ni] = true
	}
	for _, ni := range s.ckt.WillFire {
		rooted[ni] = true
	}
	fusible := func(i int) bool { return uses[i] == 1 && !rooted[i] }

	// First pass: pick the nets consumed by a fusing consumer.
	consumed := make([]bool, len(nets))
	for _, ni := range s.plan {
		n := &nets[ni]
		switch n.Kind {
		case circuit.NMux:
			sel := &nets[n.Args[0]]
			if sel.Kind == circuit.NBinop && sel.Op == ast.OpEq && fusible(n.Args[0]) {
				consumed[n.Args[0]] = true
			}
		case circuit.NBinop:
			if n.Op == ast.OpAnd {
				arg := &nets[n.Args[1]]
				if arg.Kind == circuit.NUnop && arg.Op == ast.OpNot && arg.W == n.W && fusible(n.Args[1]) {
					consumed[n.Args[1]] = true
				}
			}
		}
	}

	// Second pass: decode.
	var ops []fusedOp
	var exts []fusedExt
	for _, ni := range s.plan {
		if consumed[ni] {
			continue
		}
		n := &nets[ni]
		switch n.Kind {
		case circuit.NExt:
			widths := make([]int, len(n.Args))
			args := make([]int32, len(n.Args))
			for j, a := range n.Args {
				widths[j] = nets[a].W
				args[j] = int32(a)
			}
			exts = append(exts, fusedExt{
				fn: s.d.ExtFuns[n.Ext].Fn, args: args, widths: widths,
				buf: s.extBufs[ni], dst: int32(ni),
			})
			ops = append(ops, fusedOp{code: fExt, a: int32(len(exts) - 1)})
		default:
			ops = append(ops, s.decodeNet(ni, consumed))
		}
	}
	return ops, exts
}

// decodeNet translates one non-ext planned net to a fused op.
func (s *Simulator) decodeNet(ni int, consumed []bool) fusedOp {
	nets := s.ckt.Nets
	n := &nets[ni]
	op := fusedOp{dst: int32(ni)}
	switch n.Kind {
	case circuit.NUnop:
		a := n.Args[0]
		op.a = int32(a)
		aw := nets[a].W
		switch n.Op {
		case ast.OpNot:
			op.code, op.mask = fNot, bits.Mask(n.W)
		case ast.OpSignExtend:
			// For aw == 0 the shift is 64; Go defines v<<64 == 0, so
			// width-0 operands extend to 0 with no special case.
			op.code, op.mask = fSext, bits.Mask(n.W)
			op.sha = uint8(64 - aw)
		case ast.OpZeroExtend:
			op.code = fCopy
		case ast.OpSlice:
			op.code, op.sha, op.mask = fSlice, uint8(n.Lo), bits.Mask(n.Wid)
		}
	case circuit.NBinop:
		a, b := n.Args[0], n.Args[1]
		aw, bw := nets[a].W, nets[b].W
		op.a, op.b = int32(a), int32(b)
		op.mask = bits.Mask(n.W)
		switch n.Op {
		case ast.OpAdd:
			op.code = fAdd
		case ast.OpSub:
			op.code = fSub
		case ast.OpMul:
			op.code = fMul
		case ast.OpAnd:
			op.code = fAnd
			if inner := &nets[b]; consumed[b] && inner.Kind == circuit.NUnop && inner.Op == ast.OpNot {
				op.code, op.b = fAndNot, int32(inner.Args[0])
			}
		case ast.OpOr:
			op.code = fOr
		case ast.OpXor:
			op.code = fXor
		case ast.OpEq:
			op.code = fEq
		case ast.OpNeq:
			op.code = fNeq
		case ast.OpLtu:
			op.code = fLtu
		case ast.OpGeu:
			op.code = fGeu
		case ast.OpLts, ast.OpGes:
			op.code = fLts
			if n.Op == ast.OpGes {
				op.code = fGes
			}
			op.sha, op.shb = uint8(64-aw), uint8(64-bw)
		case ast.OpSll:
			op.code, op.sha = fSll, uint8(aw)
		case ast.OpSrl:
			op.code, op.sha = fSrl, uint8(aw)
		case ast.OpSra:
			op.code, op.sha, op.shb = fSra, uint8(aw), uint8(64-aw)
		case ast.OpConcat:
			op.code, op.shb = fConcat, uint8(bw)
		}
	case circuit.NMux:
		sel, a, b := n.Args[0], n.Args[1], n.Args[2]
		op.code, op.a, op.b, op.c = fMux, int32(sel), int32(a), int32(b)
		if inner := &nets[sel]; consumed[sel] && inner.Kind == circuit.NBinop && inner.Op == ast.OpEq {
			op.code = fMuxEq
			op.a, op.b = int32(inner.Args[0]), int32(inner.Args[1])
			op.c, op.d = int32(a), int32(b)
		}
	default:
		panic("rtlsim: unplannable net in fused decode")
	}
	return op
}

// runFused executes one superop block.
func runFused(vals []uint64, ops []fusedOp, exts []fusedExt) {
	for k := range ops {
		op := &ops[k]
		switch op.code {
		case fNot:
			vals[op.dst] = ^vals[op.a] & op.mask
		case fSext:
			vals[op.dst] = uint64(int64(vals[op.a]<<op.sha)>>op.sha) & op.mask
		case fCopy:
			vals[op.dst] = vals[op.a]
		case fSlice:
			vals[op.dst] = (vals[op.a] >> op.sha) & op.mask
		case fAdd:
			vals[op.dst] = (vals[op.a] + vals[op.b]) & op.mask
		case fSub:
			vals[op.dst] = (vals[op.a] - vals[op.b]) & op.mask
		case fMul:
			vals[op.dst] = (vals[op.a] * vals[op.b]) & op.mask
		case fAnd:
			vals[op.dst] = vals[op.a] & vals[op.b]
		case fOr:
			vals[op.dst] = vals[op.a] | vals[op.b]
		case fXor:
			vals[op.dst] = vals[op.a] ^ vals[op.b]
		case fEq:
			if vals[op.a] == vals[op.b] {
				vals[op.dst] = 1
			} else {
				vals[op.dst] = 0
			}
		case fNeq:
			if vals[op.a] != vals[op.b] {
				vals[op.dst] = 1
			} else {
				vals[op.dst] = 0
			}
		case fLtu:
			if vals[op.a] < vals[op.b] {
				vals[op.dst] = 1
			} else {
				vals[op.dst] = 0
			}
		case fGeu:
			if vals[op.a] >= vals[op.b] {
				vals[op.dst] = 1
			} else {
				vals[op.dst] = 0
			}
		case fLts:
			if int64(vals[op.a]<<op.sha)>>op.sha < int64(vals[op.b]<<op.shb)>>op.shb {
				vals[op.dst] = 1
			} else {
				vals[op.dst] = 0
			}
		case fGes:
			if int64(vals[op.a]<<op.sha)>>op.sha >= int64(vals[op.b]<<op.shb)>>op.shb {
				vals[op.dst] = 1
			} else {
				vals[op.dst] = 0
			}
		case fSll:
			if b := vals[op.b]; b >= uint64(op.sha) {
				vals[op.dst] = 0
			} else {
				vals[op.dst] = vals[op.a] << b & op.mask
			}
		case fSrl:
			if b := vals[op.b]; b >= uint64(op.sha) {
				vals[op.dst] = 0
			} else {
				vals[op.dst] = vals[op.a] >> b
			}
		case fSra:
			sh := vals[op.b]
			if sh >= uint64(op.sha) {
				if op.sha == 0 {
					vals[op.dst] = 0
					continue
				}
				sh = uint64(op.sha)
			}
			vals[op.dst] = uint64(int64(vals[op.a]<<op.shb)>>op.shb>>sh) & op.mask
		case fConcat:
			vals[op.dst] = (vals[op.a]<<op.shb | vals[op.b]) & op.mask
		case fMux:
			if vals[op.a] != 0 {
				vals[op.dst] = vals[op.b]
			} else {
				vals[op.dst] = vals[op.c]
			}
		case fMuxEq:
			if vals[op.a] == vals[op.b] {
				vals[op.dst] = vals[op.c]
			} else {
				vals[op.dst] = vals[op.d]
			}
		case fAndNot:
			vals[op.dst] = vals[op.a] &^ vals[op.b]
		case fExt:
			e := &exts[op.a]
			for j, a := range e.args {
				e.buf[j] = bits.Bits{Width: e.widths[j], Val: vals[a]}
			}
			vals[e.dst] = e.fn(e.buf).Val
		}
	}
}

package gomodel

// The condition VM: the evaluator of every compiled breakpoint and trace
// query condition. This file is compiled into package gomodel, where
// Condition.Eval runs it in-process, and it is emitted verbatim, minus the
// package clause, into every servo program (servo.go embeds it). It must
// therefore stay self-contained: no imports, and every identifier starts
// with "vm" so it cannot collide with the emitted design's names.
//
// A program is a slice of instruction words over a stack of uint64
// payloads. An instruction word holds the opcode in bits 0-7, a binary
// operator in bits 8-15, operands x and y in bits 16-31 and 32-47, and a
// register, local or jump operand in bits 32-63 (arg). vmConst and vmCase
// take the following word as their constant. Jumps only go forward, so
// vmCheck can verify a program in one pass, and a verified program leaves
// exactly one value, the condition, on the stack.
const (
	vmConst    = iota + 1 // push the next word
	vmRead                // push row[arg]
	vmLoad                // push loc[arg]
	vmStore               // loc[arg] = pop
	vmPop                 // drop the top
	vmUnit                // push 0
	vmNot                 // top = ^top over x bits
	vmSext                // top = top sign-extended from x to y bits
	vmSlice               // top = y bits of top from bit x
	vmBinop               // b = pop; top = binop(top, b) at widths x and y
	vmSetSlice            // v = pop; top = top with y bits from bit x set to v
	vmJz                  // if pop == 0, jump to arg
	vmJmp                 // jump to arg
	vmCase                // if top != next word, jump to arg; else pop
	vmOps
)

// Binary operators (bits 8-15 of a vmBinop word).
const (
	vmAdd = iota
	vmSub
	vmMul
	vmAnd
	vmOr
	vmXor
	vmEq
	vmNeq
	vmLtu
	vmLts
	vmGeu
	vmGes
	vmSll
	vmSrl
	vmSra
	vmConcat
	vmBinops
)

func vmMask(w uint64) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<w - 1
}

func vmSigned(v, w uint64) int64 {
	if w == 0 {
		return 0
	}
	s := 64 - w
	return int64(v<<s) >> s
}

func vmBool(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// vmBin applies binary operator op to a (aw bits) and b (bw bits).
func vmBin(op byte, a, b, aw, bw uint64) uint64 {
	switch op {
	case vmAdd:
		return (a + b) & vmMask(aw)
	case vmSub:
		return (a - b) & vmMask(aw)
	case vmMul:
		return (a * b) & vmMask(aw)
	case vmAnd:
		return a & b
	case vmOr:
		return a | b
	case vmXor:
		return a ^ b
	case vmEq:
		return vmBool(a == b)
	case vmNeq:
		return vmBool(a != b)
	case vmLtu:
		return vmBool(a < b)
	case vmLts:
		return vmBool(vmSigned(a, aw) < vmSigned(b, bw))
	case vmGeu:
		return vmBool(a >= b)
	case vmGes:
		return vmBool(vmSigned(a, aw) >= vmSigned(b, bw))
	case vmSll:
		if b >= aw {
			return 0
		}
		return (a << b) & vmMask(aw)
	case vmSrl:
		if b >= aw {
			return 0
		}
		return a >> b
	case vmSra:
		if aw == 0 {
			return a
		}
		if b > aw {
			b = aw
		}
		return uint64(vmSigned(a, aw)>>b) & vmMask(aw)
	case vmConcat:
		return (a<<bw | b) & vmMask(aw+bw)
	}
	return 0
}

// vmEval runs a program vmCheck accepted over a register row. stk and loc
// are scratch of the sizes vmCheck reported; vmEval allocates nothing.
func vmEval(prog, row, stk, loc []uint64) uint64 {
	sp := 0
	for pc := 0; pc < len(prog); pc++ {
		w := prog[pc]
		x, y, arg := w>>16&0xffff, w>>32&0xffff, w>>32
		switch byte(w) {
		case vmConst:
			pc++
			stk[sp] = prog[pc]
			sp++
		case vmRead:
			stk[sp] = row[arg]
			sp++
		case vmLoad:
			stk[sp] = loc[arg]
			sp++
		case vmStore:
			sp--
			loc[arg] = stk[sp]
		case vmPop:
			sp--
		case vmUnit:
			stk[sp] = 0
			sp++
		case vmNot:
			stk[sp-1] = ^stk[sp-1] & vmMask(x)
		case vmSext:
			stk[sp-1] = uint64(vmSigned(stk[sp-1], x)) & vmMask(y)
		case vmSlice:
			stk[sp-1] = stk[sp-1] >> x & vmMask(y)
		case vmBinop:
			sp--
			stk[sp-1] = vmBin(byte(w>>8), stk[sp-1], stk[sp], x, y)
		case vmSetSlice:
			sp--
			stk[sp-1] = stk[sp-1]&^(vmMask(y)<<x) | stk[sp]<<x
		case vmJz:
			sp--
			if stk[sp] == 0 {
				pc = int(arg) - 1
			}
		case vmJmp:
			pc = int(arg) - 1
		case vmCase:
			pc++
			if stk[sp-1] != prog[pc] {
				pc = int(arg) - 1
			} else {
				sp--
			}
		}
	}
	return stk[0]
}

// vmCheck verifies a program over rows of nregs registers: known opcodes
// and operators, register indices in range, forward jumps inside the
// program, a stack depth that agrees at every join, never underflows and
// ends at one. It returns the stack and local slots vmEval needs.
func vmCheck(prog []uint64, nregs int) (stack, locals int, ok bool) {
	// at[pc] is 1 + the depth a jump to pc arrives with (0: no jump yet).
	at := make([]int, len(prog)+1)
	depth := 0 // -1: unreachable by fallthrough
	join := func(pc, d int) bool {
		if at[pc] == 0 {
			at[pc] = d + 1
		}
		return at[pc] == d+1
	}
	for pc := 0; pc < len(prog); pc++ {
		if at[pc] != 0 {
			if depth >= 0 && at[pc] != depth+1 {
				return 0, 0, false
			}
			depth = at[pc] - 1
		}
		if depth < 0 {
			return 0, 0, false
		}
		w := prog[pc]
		x, y, arg := w>>16&0xffff, w>>32&0xffff, w>>32
		op := byte(w)
		pop, push := 0, 0
		switch op {
		case vmConst:
			if pc+1 >= len(prog) || at[pc+1] != 0 {
				return 0, 0, false
			}
			pc++
			push = 1
		case vmRead:
			if arg >= uint64(nregs) {
				return 0, 0, false
			}
			push = 1
		case vmLoad, vmStore:
			if arg >= 1<<16 {
				return 0, 0, false
			}
			locals = max(locals, int(arg)+1)
			if op == vmLoad {
				push = 1
			} else {
				pop = 1
			}
		case vmPop:
			pop = 1
		case vmUnit:
			push = 1
		case vmNot, vmSext, vmSlice:
			if x > 64 || y > 64 {
				return 0, 0, false
			}
			pop, push = 1, 1
		case vmBinop:
			if byte(w>>8) >= vmBinops || x > 64 || y > 64 {
				return 0, 0, false
			}
			pop, push = 2, 1
		case vmSetSlice:
			if x > 64 || y > 64 {
				return 0, 0, false
			}
			pop, push = 2, 1
		case vmJz, vmJmp, vmCase:
			if arg <= uint64(pc) || arg > uint64(len(prog)) {
				return 0, 0, false
			}
			switch op {
			case vmJz:
				if depth < 1 || !join(int(arg), depth-1) {
					return 0, 0, false
				}
				pop = 1
			case vmJmp:
				if !join(int(arg), depth) {
					return 0, 0, false
				}
			case vmCase:
				if arg <= uint64(pc+1) || at[pc+1] != 0 || depth < 1 || !join(int(arg), depth) {
					return 0, 0, false
				}
				pc++
				pop = 1
			}
		default:
			return 0, 0, false
		}
		if depth < pop {
			return 0, 0, false
		}
		depth += push - pop
		stack = max(stack, depth)
		if op == vmJmp {
			depth = -1
		}
	}
	if at[len(prog)] != 0 {
		if depth >= 0 && at[len(prog)] != depth+1 {
			return 0, 0, false
		}
		depth = at[len(prog)] - 1
	}
	return stack, locals, depth == 1
}
